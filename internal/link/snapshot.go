package link

import (
	"math"

	"gathernoc/internal/flit"
)

// AppendState appends the link's state (flit.Encoder). In absolute mode it
// opens with the carried counters, the owed-credit ledger and, on a faulted
// link, the fault decision state; the proof's relative mode leaves them out
// (statistics, and state only faulted fabrics have, which the periodicity
// proof does not cover: noc.Network.Bare). Both modes then write the two
// staging rings in send order, due cycles as cycles (widened against the
// encoder's clock), or one byte when both are empty.
func (l *Link) AppendState(e *flit.Encoder) {
	if !e.Relative() {
		e.Uint(l.FlitsCarried.Value())
		e.Uint(l.CreditsCarried.Value())
		var owed []int
		if l.faults != nil {
			owed = l.faults.owedCredits
		}
		e.Uint(uint64(len(owed)))
		for _, n := range owed {
			e.Int(int64(n))
		}
		if l.faults != nil && l.faults.ls != nil {
			l.faults.ls.AppendState(e)
		}
	}
	idle := l.flits.Empty() && l.credits.Empty()
	e.Bool(idle)
	if idle {
		return
	}
	now := e.Now()
	e.Uint(uint64(l.flits.Len()))
	for i := 0; i < l.flits.Len(); i++ {
		in := l.flits.At(i)
		in.f.AppendState(e)
		e.Int(int64(in.vc))
		e.Cycle(dueAt(in.due, now))
	}
	e.Uint(uint64(l.credits.Len()))
	for i := 0; i < l.credits.Len(); i++ {
		c := l.credits.At(i)
		e.Int(int64(c.vc))
		e.Cycle(dueAt(c.due, now))
	}
}

// LoadState replaces the link's state with the absolute encoding
// AppendState wrote, checking every VC against the vcs its endpoints have
// and every due cycle against the decoder's clock: a flit is due within
// the link's latency, a credit within one cycle, as at every boundary.
// In-flight flits are acquired from pool, the view of the shard that
// commits them.
func (l *Link) LoadState(d *flit.Decoder, pool *flit.Pool, vcs int) error {
	l.FlitsCarried.Set(d.Uint())
	l.CreditsCarried.Set(d.Uint())
	owedVCs := d.UintRange(0, vcs, "owed-credit VCs")
	if owedVCs > 0 && l.faults == nil {
		d.Failf("owed credits on a link without faults")
		owedVCs = 0
	}
	if fs := l.faults; fs != nil {
		fs.owedCredits = fs.owedCredits[:0]
		fs.owedAny = false
		for n := owedVCs; n > 0; n-- {
			c := d.IntRange(0, math.MaxInt32, "owed credits")
			fs.owedCredits = append(fs.owedCredits, c)
			fs.owedAny = fs.owedAny || c > 0
		}
		if fs.ls != nil {
			fs.ls.LoadState(d)
		}
	}
	l.flits.Reset()
	l.credits.Reset()
	if d.Bool() {
		return d.Err()
	}
	now := d.Now()
	for n := d.Len(); n > 0; n-- {
		f := pool.Acquire()
		f.LoadState(d)
		vc := d.IntRange(0, vcs-1, "link VC")
		due := d.IntRange(int(now), int(now)+int(l.latency), "flit due cycle")
		l.flits.PushBack(inflightFlit{f: f, vc: uint8(vc), due: uint32(due)})
	}
	for n := d.Len(); n > 0; n-- {
		vc := d.IntRange(0, vcs-1, "credit VC")
		due := d.IntRange(int(now), int(now)+1, "credit due cycle")
		l.credits.PushBack(inflightCredit{vc: uint8(vc), due: uint32(due)})
	}
	return d.Err()
}
