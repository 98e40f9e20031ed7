package reduce

import "gathernoc/internal/flit"

// EntrySnapshot is the serialized form of one station entry: the operand
// by value plus its reservation state. The ack callback is not serialized
// — every entry of a station is offered with the owning NIC's single ack
// function (gather or reduce), which the restoring network re-wires.
type EntrySnapshot struct {
	Operand  flit.Payload
	Reserved bool
}

// CaptureEntries serializes the station queue in order.
func (s *Station) CaptureEntries() []EntrySnapshot {
	if len(s.entries) == 0 {
		return nil
	}
	out := make([]EntrySnapshot, len(s.entries))
	for i, e := range s.entries {
		out[i] = EntrySnapshot{Operand: e.operand, Reserved: e.state == entryReserved}
	}
	return out
}

// RestoreEntries replaces the station queue with the captured entries,
// all acked through the given function (the owning NIC's handler, exactly
// as Offer would have wired them).
func (s *Station) RestoreEntries(entries []EntrySnapshot, ack AckFunc) {
	for _, e := range s.entries {
		s.recycle(e)
	}
	s.entries = s.entries[:0]
	for _, es := range entries {
		e, ok := s.spares.Get()
		if !ok {
			e = &Entry{}
		}
		e.operand = es.Operand
		e.state = entryPending
		if es.Reserved {
			e.state = entryReserved
		}
		e.ack = ack
		s.entries = append(s.entries, e)
	}
}

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

// AppendState appends the station queue in order, as CaptureEntries
// captures it (flit.Encoder).
func (s *Station) AppendState(e *flit.Encoder) {
	e.Uint(uint64(len(s.entries)))
	for _, en := range s.entries {
		en.operand.AppendState(e)
		e.Bool(en.state == entryReserved)
	}
}
