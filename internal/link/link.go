// Package link models the registered point-to-point channels between
// routers (and between a network interface and its router): a forward flit
// path with configurable latency and a one-cycle credit return path for
// credit-based flow control.
//
// A Link is a phase-2 component: upstream routers stage flits with Send
// during the tick phase, and the link publishes them into the downstream
// input buffer during the commit phase once their latency has elapsed, so
// a flit is never visible on both sides of a channel in the same cycle.
package link

import (
	"fmt"
	"strconv"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/ring"
	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

// Name is the diagnostic name of a link or of an ejection point, kept as
// its parts and rendered by String when a report asks for it: wiring a
// fabric formats no strings. Make one with Numbered or Between.
type Name struct {
	label    string
	from, to int32
	via      topology.Port
	form     nameForm
}

type nameForm uint8

const (
	formLabel    nameForm = iota // label (the zero Name's form)
	formNumbered                 // label, from: "inj12"
	formBetween                  // from, via, to: "r3E->r4"
)

// Numbered is prefix followed by id: "inj12", "sink3".
func Numbered(prefix string, id int) Name {
	return Name{label: prefix, from: int32(id), form: formNumbered}
}

// Between names the inter-router link that leaves router from by output
// port via and enters router to: "r3E->r4".
func Between(from topology.NodeID, via topology.Port, to topology.NodeID) Name {
	return Name{from: int32(from), via: via, to: int32(to), form: formBetween}
}

// String renders the name, in one allocation: telemetry wiring asks for
// every link's.
func (n Name) String() string {
	var buf [32]byte
	b := buf[:0]
	switch n.form {
	case formNumbered:
		b = strconv.AppendInt(append(b, n.label...), int64(n.from), 10)
	case formBetween:
		b = strconv.AppendInt(append(b, 'r'), int64(n.from), 10)
		b = append(append(b, n.via.String()...), "->r"...)
		b = strconv.AppendInt(b, int64(n.to), 10)
	default:
		return n.label
	}
	return string(b)
}

// FlitSink receives flits delivered by a link into a per-VC input buffer.
type FlitSink interface {
	AcceptFlit(f *flit.Flit, vc int)
}

// CreditSink receives returned credits for a virtual channel.
type CreditSink interface {
	AcceptCredit(vc int)
}

type inflightFlit struct {
	f   *flit.Flit
	vc  int
	due int64
}

type inflightCredit struct {
	vc  int
	due int64
}

// Link is one direction of a channel. Construct with New and register with
// the engine as a Committer.
//
// In-flight traffic is staged in ring buffers: items are pushed in send
// order with monotonically non-decreasing due cycles (the latency is
// uniform per link), so Commit pops ripe items off the front and the
// backing arrays are reused forever — zero steady-state allocation.
type Link struct {
	name    Name
	latency int64
	down    FlitSink
	up      CreditSink

	flits   ring.Ring[inflightFlit]
	credits ring.Ring[inflightCredit]

	// Engine wake-ups, armed for the next cycle when traffic is staged:
	// flitWake by Send, creditWake by ReturnCredit. One handle on a link
	// committed whole, one per half on a link two shards commit
	// (SetHalfWakes).
	flitWake, creditWake *sim.Handle

	probe *telemetry.Probe
	loc   int32 // downstream node id reported in trace events

	// Fault injection (SetFaults; nil on fault-free fabrics). faults
	// decides drops/corruption per flit during CommitFlits; pool reclaims
	// dropped flits (the downstream shard's view — CommitFlits runs
	// there); owedCredits accumulates, per VC, the credits the upstream
	// spent on flits that vanished at this link. The credits cannot be
	// pushed from the commit phase (the upstream shard pops the credit
	// ring concurrently), so the flusher ticker returns them in the next
	// tick phase — the same cycle offset as a downstream component that
	// consumed the flit instantly.
	faults      *fault.LinkState
	pool        *flit.Pool
	owedCredits []int
	owedAny     bool
	flushWake   *sim.Handle

	// FlitsCarried counts flits that completed traversal, by the power
	// model and utilization reports.
	FlitsCarried stats.Counter
	// CreditsCarried counts credits returned upstream; telemetry derives
	// credit-path activity per epoch from it.
	CreditsCarried stats.Counter
}

// stageDepth is the capacity each staging ring starts at: what a busy link
// used to grow its ring to on first use. A burst past it (a credit flusher
// returning several owed credits at once) grows the ring.
const stageDepth = 4

// Slab is the memory of a block of links, allocated at once so that a link
// allocates nothing after construction: the links and the backing arrays
// of their staging rings. A fabric builds one per shard.
type Slab struct {
	links   []Link
	flits   []inflightFlit
	credits []inflightCredit
}

// NewSlab returns a slab for n links.
func NewSlab(n int) *Slab {
	return &Slab{
		links:   make([]Link, n),
		flits:   make([]inflightFlit, n*stageDepth),
		credits: make([]inflightCredit, n*stageDepth),
	}
}

// carve cuts the next n elements off *slab, allocating them afresh once the
// slab is spent.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// New returns a link out of the slab with the given forward latency in
// cycles (minimum 1: a flit sent in cycle c is visible downstream in cycle
// c+latency+1, i.e. it spends latency cycles on the wire after the send
// cycle). down receives delivered flits; up (may be nil) receives returned
// credits after one cycle. Beyond the n links the slab was made for, it
// allocates each one's memory anew.
func (s *Slab) New(name Name, latency int, down FlitSink, up CreditSink) *Link {
	l := &carve(&s.links, 1)[0]
	*l = Link{
		name:    name,
		latency: int64(max(latency, 1)),
		down:    down,
		up:      up,
		flits:   ring.Over(carve(&s.flits, stageDepth)),
		credits: ring.Over(carve(&s.credits, stageDepth)),
	}
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name.String() }

// SetWake attaches the engine wake handle; Send and ReturnCredit arm it so
// a sleeping link is committed from the next cycle on. Links work without
// one (nil handles ignore wakes).
func (l *Link) SetWake(h *sim.Handle) { l.flitWake, l.creditWake = h, h }

// SetHalfWakes attaches the wake handles of a link committed in two halves
// (FlitHalf, CreditHalf): Send arms flits, ReturnCredit arms credits. Each is
// called from the shard at the other end of the link from the half it wakes,
// so the handles must be remote ones made for that shard (sim.Handle.Remote).
func (l *Link) SetHalfWakes(flits, credits *sim.Handle) { l.flitWake, l.creditWake = flits, credits }

// FlitHalf commits a link's forward path only; a sharded engine registers it
// with the shard owning the downstream endpoint. It sleeps while no flit is
// on the wire.
type FlitHalf struct{ L *Link }

// Commit delivers the ripe flits.
func (h FlitHalf) Commit(now int64) { h.L.CommitFlits(now) }

// Idle implements sim.Idler.
func (h FlitHalf) Idle() bool { return h.L.flits.Empty() }

// CreditHalf commits a link's credit return only; registered with the shard
// owning the upstream endpoint. It sleeps while no credit is on the wire.
type CreditHalf struct{ L *Link }

// Commit delivers the ripe credits.
func (h CreditHalf) Commit(now int64) { h.L.CommitCredits(now) }

// Idle implements sim.Idler.
func (h CreditHalf) Idle() bool { return h.L.credits.Empty() }

// SetTelemetry attaches a lifecycle-trace probe. loc is the downstream
// node id recorded on link-traversal events. The probe must belong to the
// shard that commits this link's flit half (single-writer rule).
func (l *Link) SetTelemetry(p *telemetry.Probe, loc int) {
	l.probe = p
	l.loc = int32(loc)
}

// SetFaults attaches fault-injection decision state and the flit-pool
// view that reclaims dropped flits (the view owned by the shard that
// commits this link's flits). Call before the first cycle; a link without
// faults skips every fault check.
func (l *Link) SetFaults(ls *fault.LinkState, pool *flit.Pool) {
	l.faults = ls
	l.pool = pool
}

// Faults returns the link's fault state (nil on fault-free fabrics).
func (l *Link) Faults() *fault.LinkState { return l.faults }

// CreditFlusher is the tick-phase companion of a faulted link: it returns
// the credits owed for flits dropped during the previous commit phase.
// Register it as a ticker on the shard that owns the link's downstream
// endpoint (the same shard that runs CommitFlits), so the owed counters
// have a single writer per phase.
type CreditFlusher struct{ l *Link }

// NewCreditFlusher returns the link's credit flusher.
func (l *Link) NewCreditFlusher() *CreditFlusher { return &CreditFlusher{l: l} }

// SetWake attaches the flusher's engine wake handle; CommitFlits arms it
// when a drop leaves credits owed.
func (cf *CreditFlusher) SetWake(h *sim.Handle) { cf.l.flushWake = h }

// Idle implements sim.Idler: nothing owed means the tick is a no-op.
func (cf *CreditFlusher) Idle() bool { return !cf.l.owedAny }

// Tick returns every owed credit upstream via the normal staged credit
// path (due next cycle), exactly as a downstream component that consumed
// the dropped flit immediately would have.
func (cf *CreditFlusher) Tick(cycle int64) {
	l := cf.l
	if !l.owedAny {
		return
	}
	for vc, n := range l.owedCredits {
		for ; n > 0; n-- {
			l.ReturnCredit(vc, cycle)
		}
		l.owedCredits[vc] = 0
	}
	l.owedAny = false
}

// oweCredit records, during CommitFlits, one credit to return for a
// dropped flit.
func (l *Link) oweCredit(vc int) {
	for len(l.owedCredits) <= vc {
		l.owedCredits = append(l.owedCredits, 0)
	}
	l.owedCredits[vc]++
	l.owedAny = true
	l.flushWake.Wake()
}

// Idle implements sim.Idler: with nothing in flight the commit is a pure
// no-op, so the engine may skip the link until traffic is staged again. A
// link with anything still on the wire stays awake, so a latency above one
// cycle needs no timer: the commits before the item is due find nothing
// ripe.
func (l *Link) Idle() bool { return l.flits.Empty() && l.credits.Empty() }

// Send stages a flit for traversal; called by the upstream component
// during its tick at cycle now. Nothing staged in cycle now can be due
// before now+1, so the link is woken for the next cycle, not this one.
func (l *Link) Send(f *flit.Flit, vc int, now int64) {
	l.flits.PushBack(inflightFlit{f: f, vc: vc, due: now + l.latency})
	l.flitWake.WakeNext()
}

// ReturnCredit stages a credit for the upstream component; called by the
// downstream component during its tick at cycle now when it frees a buffer
// slot on vc. Like Send, it wakes the link for the cycle the credit is due.
func (l *Link) ReturnCredit(vc int, now int64) {
	l.credits.PushBack(inflightCredit{vc: vc, due: now + 1})
	l.creditWake.WakeNext()
}

// InFlight returns the number of flits currently traversing the link.
func (l *Link) InFlight() int { return l.flits.Len() }

// CheckInvariants reports the first way the channel is inconsistent,
// between cycles. Credits are conserved on each of its vcs VCs: the
// credits the upstream end holds (its Credits(vc)), the flits and credits
// on the wire, the credits owed for flits a fault dropped and the flits the
// downstream end buffers (its Occupancy(vc)) add up to depth, the buffer's
// size. (One credit too many lets a flit overflow the buffer; one too few
// loses a slot for good.) A channel whose ends cannot count is left out of
// that check. With intoRouter, a multicast head on the wire must carry its
// destination set, which the router's route computation reads;
// ejection-bound heads need none.
func (l *Link) CheckInvariants(depth, vcs int, intoRouter bool) error {
	up, _ := l.up.(interface{ Credits(vc int) int })
	down, _ := l.down.(interface{ Occupancy(vc int) int })
	for vc := 0; vc < vcs && up != nil && down != nil; vc++ {
		n := up.Credits(vc) + down.Occupancy(vc)
		for i := 0; i < l.flits.Len(); i++ {
			if l.flits.At(i).vc == vc {
				n++
			}
		}
		for i := 0; i < l.credits.Len(); i++ {
			if l.credits.At(i).vc == vc {
				n++
			}
		}
		if vc < len(l.owedCredits) {
			n += l.owedCredits[vc]
		}
		if n != depth {
			return fmt.Errorf("link %s: vc%d accounts for %d buffer slots (credits upstream, on the wire and owed, flits on the wire and buffered), want %d",
				l.name, vc, n, depth)
		}
	}
	for i := 0; intoRouter && i < l.flits.Len(); i++ {
		if f := l.flits.At(i).f; f.IsHead() && f.PT == flit.Multicast && f.MDst == nil {
			return fmt.Errorf("link %s: multicast head of packet %d has no destination set", l.name, f.PacketID)
		}
	}
	return nil
}

// Commit delivers flits and credits whose latency has elapsed. Items are
// staged in send order with non-decreasing due cycles and latencies are
// uniform, so popping ripe items off the ring front preserves per-VC flit
// order.
func (l *Link) Commit(now int64) {
	l.CommitFlits(now)
	l.CommitCredits(now)
}

// CommitFlits delivers the ripe half of the forward path only: flits into
// the downstream input buffer. The sharded engine registers it with the
// shard owning the downstream endpoint, while CommitCredits goes to the
// upstream endpoint's shard — the two halves touch disjoint state (the
// flits ring and the downstream buffers vs the credits ring and the
// upstream counters), so a link spanning a shard boundary is committed by
// two goroutines without a race, and in either order without a schedule
// change.
func (l *Link) CommitFlits(now int64) {
	for !l.flits.Empty() && l.flits.Front().due <= now {
		in := l.flits.PopFront()
		if l.faults != nil && l.faultFlit(in, now) {
			continue
		}
		if l.probe != nil && in.f.IsHead() && l.probe.Sampled(in.f.PacketID) {
			l.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvLink,
				Packet: in.f.PacketID, Tag: in.f.Tag, Loc: l.loc, Aux: int64(in.vc)})
		}
		l.down.AcceptFlit(in.f, in.vc)
		l.FlitsCarried.Inc()
	}
}

// faultFlit applies the link's fault schedule to a ripe flit. It reports
// true when the flit was dropped (released to the pool, credit owed,
// nothing delivered); corrupted flits are marked and travel on.
func (l *Link) faultFlit(in inflightFlit, now int64) bool {
	pid := in.f.PacketID
	head, tail := in.f.IsHead(), in.f.IsTail()
	if l.faults.DropFlit(pid, head, tail, now) {
		if l.probe != nil && head && l.probe.Sampled(pid) {
			l.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFaultDrop,
				Packet: pid, Tag: in.f.Tag, Loc: l.loc, Aux: int64(in.vc)})
		}
		l.oweCredit(in.vc)
		l.FlitsCarried.Inc() // the wire was traversed; the far end ate it
		l.pool.ReleaseDropped(in.f)
		return true
	}
	if l.faults.CorruptFlit(pid, head) {
		in.f.Corrupted = true
		if l.probe != nil && head && l.probe.Sampled(pid) {
			l.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvFaultCorrupt,
				Packet: pid, Tag: in.f.Tag, Loc: l.loc, Aux: int64(in.vc)})
		}
	}
	return false
}

// CommitCredits delivers the ripe credits to the upstream endpoint; see
// CommitFlits for the sharding contract.
func (l *Link) CommitCredits(now int64) {
	for !l.credits.Empty() && l.credits.Front().due <= now {
		c := l.credits.PopFront()
		if l.up != nil {
			l.up.AcceptCredit(c.vc)
		}
		l.CreditsCarried.Inc()
	}
}
