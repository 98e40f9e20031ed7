package reduce

import "gathernoc/internal/flit"

// EntryIndex returns e's position in the station queue, or -1 when e is
// not queued. Snapshots use it to encode a router's live entry pointers
// as stable indices.
func (s *Station) EntryIndex(e *Entry) int {
	for i, cur := range s.entries {
		if cur == e {
			return i
		}
	}
	return -1
}

// EntryAt returns the i-th queued entry (nil when out of range); the
// restore path re-links router-held entry pointers through it.
func (s *Station) EntryAt(i int) *Entry {
	if i < 0 || i >= len(s.entries) {
		return nil
	}
	return s.entries[i]
}

// AppendState appends the station queue in order (flit.Encoder): each
// operand and whether it is reserved. The ack callback is not written —
// every entry of a station is offered with the owning NIC's one ack
// function (gather or reduce), which LoadState is given.
func (s *Station) AppendState(e *flit.Encoder) {
	e.Uint(uint64(len(s.entries)))
	for _, en := range s.entries {
		en.operand.AppendState(e)
		e.Bool(en.state == entryReserved)
	}
}

// LoadState replaces the station queue with the one AppendState wrote,
// every entry acked through ack, as Offer would have wired it.
func (s *Station) LoadState(d *flit.Decoder, ack AckFunc) {
	for _, e := range s.entries {
		s.recycle(e)
	}
	s.entries = s.entries[:0]
	n := d.Len()
	if n > s.cap {
		d.Failf("station of %d entries over its capacity %d", n, s.cap)
		n = 0
	}
	for ; n > 0; n-- {
		e, ok := s.spares.Get()
		if !ok {
			e = &Entry{}
		}
		e.operand.LoadState(d)
		e.state = entryPending
		if d.Bool() {
			e.state = entryReserved
		}
		e.ack = ack
		s.entries = append(s.entries, e)
	}
}
