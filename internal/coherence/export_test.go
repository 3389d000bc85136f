package coherence

// entries counts the lines with live transactional state.
func (d *Directory) entries() int {
	n := 0
	for _, p := range d.pages {
		if p == nil {
			continue
		}
		for o := range p.owner {
			if hasState(p, uint64(o)) {
				n++
			}
		}
	}
	return n
}
