package fault

import (
	"slices"

	"gathernoc/internal/flit"
)

// AppendState appends the link's mutable fault state (flit.Encoder, absolute
// mode only): the packet-atomic drop set, sorted so that equal states encode
// alike, and the diagnostic counters. The decision inputs (salt,
// thresholds, outage windows) are pure functions of the configuration and
// are rebuilt by construction.
func (ls *LinkState) AppendState(e *flit.Encoder) {
	doomed := make([]uint64, 0, len(ls.doomed))
	for pid := range ls.doomed {
		doomed = append(doomed, pid)
	}
	slices.Sort(doomed)
	e.Uint(uint64(len(doomed)))
	for _, pid := range doomed {
		e.Uint(pid)
	}
	e.Uint(ls.Drops)
	e.Uint(ls.Corrupts)
}

// LoadState replaces the link's mutable fault state with the one
// AppendState wrote.
func (ls *LinkState) LoadState(d *flit.Decoder) {
	clear(ls.doomed)
	for n := d.Len(); n > 0; n-- {
		if ls.doomed == nil {
			ls.doomed = make(map[uint64]struct{}, n)
		}
		ls.doomed[d.Uint()] = struct{}{}
	}
	ls.Drops = d.Uint()
	ls.Corrupts = d.Uint()
}
