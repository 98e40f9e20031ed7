package link

import (
	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/stats"
)

// InflightFlit is one serialized entry of the forward staging ring.
type InflightFlit struct {
	Flit flit.State
	VC   int
	Due  int64
}

// InflightCredit is one serialized entry of the credit staging ring.
type InflightCredit struct {
	VC  int
	Due int64
}

// State is the serialized mutable state of one link: both staging rings
// in send order (due cycles are absolute, matching the snapshot's engine
// cycle), the owed-credit ledger of the fault path, the carried counters,
// and the fault decision state when injection is enabled.
type State struct {
	Flits          []InflightFlit   `json:",omitempty"`
	Credits        []InflightCredit `json:",omitempty"`
	OwedCredits    []int            `json:",omitempty"`
	FlitsCarried   stats.Counter
	CreditsCarried stats.Counter
	Faults         *fault.LinkSnapshot `json:",omitempty"`
}

// CaptureState serializes the link's mutable state.
func (l *Link) CaptureState() State {
	s := State{
		FlitsCarried:   l.FlitsCarried,
		CreditsCarried: l.CreditsCarried,
	}
	for i := 0; i < l.flits.Len(); i++ {
		in := l.flits.At(i)
		s.Flits = append(s.Flits, InflightFlit{Flit: flit.CaptureFlit(in.f), VC: in.vc, Due: in.due})
	}
	for i := 0; i < l.credits.Len(); i++ {
		c := l.credits.At(i)
		s.Credits = append(s.Credits, InflightCredit{VC: c.vc, Due: c.due})
	}
	if l.owedAny {
		s.OwedCredits = append([]int(nil), l.owedCredits...)
	}
	if l.faults != nil {
		fs := l.faults.Capture()
		s.Faults = &fs
	}
	return s
}

// AppendState appends the link's decision state (flit.Encoder): both
// staging rings, due cycles relative to the encoder's base, or one byte
// when both are empty. The carried counters are statistics; the
// owed-credit ledger and the fault state exist only on faulted fabrics,
// which the periodicity proof does not cover (noc.Network.Bare).
func (l *Link) AppendState(e *flit.Encoder) {
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

// RestoreState replaces the link's mutable state with the captured one,
// materializing in-flight flits through pool (the restored network's
// acquire/release accounting must balance). numNodes sizes rebuilt
// multicast destination sets.
func (l *Link) RestoreState(s State, pool *flit.Pool, numNodes int) {
	l.FlitsCarried = s.FlitsCarried
	l.CreditsCarried = s.CreditsCarried
	l.flits.Reset()
	for _, in := range s.Flits {
		l.flits.PushBack(inflightFlit{f: in.Flit.Materialize(pool, numNodes), vc: in.VC, due: in.Due})
	}
	l.credits.Reset()
	for _, c := range s.Credits {
		l.credits.PushBack(inflightCredit{vc: c.VC, due: c.Due})
	}
	l.owedCredits = l.owedCredits[:0]
	l.owedAny = false
	for vc, n := range s.OwedCredits {
		if n > 0 {
			l.oweCredit(vc)
			l.owedCredits[vc] = n
		}
	}
	if s.Faults != nil && l.faults != nil {
		l.faults.Restore(*s.Faults)
	}
}
