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
// staging rings in send order, due cycles as cycles, or one byte when both
// are empty.
func (l *Link) AppendState(e *flit.Encoder) {
	if !e.Relative() {
		e.Uint(l.FlitsCarried.Value())
		e.Uint(l.CreditsCarried.Value())
		e.Uint(uint64(len(l.owedCredits)))
		for _, n := range l.owedCredits {
			e.Int(int64(n))
		}
		if l.faults != nil {
			l.faults.AppendState(e)
		}
	}
	idle := l.flits.Empty() && l.credits.Empty()
	e.Bool(idle)
	if idle {
		return
	}
	e.Uint(uint64(l.flits.Len()))
	for i := 0; i < l.flits.Len(); i++ {
		in := l.flits.At(i)
		in.f.AppendState(e)
		e.Int(int64(in.vc))
		e.Cycle(in.due)
	}
	e.Uint(uint64(l.credits.Len()))
	for i := 0; i < l.credits.Len(); i++ {
		c := l.credits.At(i)
		e.Int(int64(c.vc))
		e.Cycle(c.due)
	}
}

// LoadState replaces the link's state with the absolute encoding
// AppendState wrote, checking every VC against the vcs its endpoints have.
// In-flight flits are acquired from pool, the view of the shard that
// commits them.
func (l *Link) LoadState(d *flit.Decoder, pool *flit.Pool, vcs int) error {
	l.FlitsCarried.Set(d.Uint())
	l.CreditsCarried.Set(d.Uint())
	l.owedCredits = l.owedCredits[:0]
	l.owedAny = false
	for n := d.UintRange(0, vcs, "owed-credit VCs"); n > 0; n-- {
		c := d.IntRange(0, math.MaxInt32, "owed credits")
		l.owedCredits = append(l.owedCredits, c)
		l.owedAny = l.owedAny || c > 0
	}
	if l.faults != nil {
		l.faults.LoadState(d)
	}
	l.flits.Reset()
	l.credits.Reset()
	if d.Bool() {
		return d.Err()
	}
	for n := d.Len(); n > 0; n-- {
		f := pool.Acquire()
		f.LoadState(d)
		l.flits.PushBack(inflightFlit{f: f, vc: d.IntRange(0, vcs-1, "link VC"), due: d.Int()})
	}
	for n := d.Len(); n > 0; n-- {
		l.credits.PushBack(inflightCredit{vc: d.IntRange(0, vcs-1, "credit VC"), due: d.Int()})
	}
	return d.Err()
}
