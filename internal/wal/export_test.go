package wal

// decode is decodeInto returning the record by value.
func decode(buf *[RecordSize]byte) (r Record, ok bool) {
	ok = decodeInto(buf, &r)
	return r, ok
}

// Read returns the record at sequence number seq from the live image.
func (l *Log) Read(seq uint64) (Record, bool) {
	if seq < l.tail || seq >= l.head {
		return Record{}, false
	}
	var buf [RecordSize]byte
	l.store.ReadInto(l.slotAddr(seq), buf[:])
	return decode(&buf)
}
