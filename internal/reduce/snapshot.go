package reduce

import "gathernoc/internal/flit"

// Hold marks the i-th queued entry, which must be reserved and held by
// nothing, as held by holder, reporting whether it was: the restore path
// re-links a router VC's reservation through it.
func (s *Station) Hold(i, holder int) bool {
	if i < 0 || i >= len(s.entries) {
		return false
	}
	e := s.entries[i]
	if e.state != entryReserved || e.holder != noHolder {
		return false
	}
	e.holder = int16(holder)
	return true
}

// AppendState appends the station queue in order (flit.Encoder): each
// operand and whether it is reserved. Neither the owner, which
// construction wires, nor the holders, which the owning router re-links
// (Hold), are written.
func (s *Station) AppendState(e *flit.Encoder) {
	e.Uint(uint64(len(s.entries)))
	for _, en := range s.entries {
		en.operand.AppendState(e)
		e.Bool(en.state == entryReserved)
	}
}

// LoadState replaces the station queue with the one AppendState wrote,
// every entry held by nothing until its router re-links it.
func (s *Station) LoadState(d *flit.Decoder) {
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
		var op flit.Payload
		op.LoadState(d)
		e := s.spare(op)
		if d.Bool() {
			e.state = entryReserved
		}
		s.entries = append(s.entries, e)
	}
}
