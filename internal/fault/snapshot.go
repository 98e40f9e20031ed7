package fault

import (
	"slices"

	"gathernoc/internal/flit"
)

// AppendState appends the link's mutable fault state (flit.Encoder, absolute
// mode only): the packet-atomic drop set, which DropFlit keeps sorted so
// that equal states encode alike, and the diagnostic counters. The
// decision inputs (salt, thresholds, outage windows) are pure functions of
// the configuration and are rebuilt by construction.
func (ls *LinkState) AppendState(e *flit.Encoder) {
	e.Uint(uint64(len(ls.doomed)))
	for _, pid := range ls.doomed {
		e.Uint(pid)
	}
	e.Uint(ls.Drops)
	e.Uint(ls.Corrupts)
}

// LoadState replaces the link's mutable fault state with the one
// AppendState wrote. The drop set is sorted again, so that a damaged
// encoding cannot break DropFlit's binary search.
func (ls *LinkState) LoadState(d *flit.Decoder) {
	ls.doomed = ls.doomed[:0]
	for n := d.Len(); n > 0; n-- {
		ls.doomed = append(ls.doomed, d.Uint())
	}
	slices.Sort(ls.doomed)
	ls.Drops = d.Uint()
	ls.Corrupts = d.Uint()
}
