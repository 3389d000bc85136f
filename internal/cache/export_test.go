package cache

import "uhtm/internal/mem"

// Dirty reports whether the line containing a is present and dirty.
func (c *Cache) Dirty(a mem.Addr) bool {
	base, w := c.find(a)
	return w >= 0 && c.tags[base+w]&tagDirty != 0
}

// Stream reports whether the line containing a is present and marked
// as a stream line.
func (c *Cache) Stream(a mem.Addr) bool {
	base, w := c.find(a)
	return w >= 0 && c.tags[base+w]&tagStream != 0
}
