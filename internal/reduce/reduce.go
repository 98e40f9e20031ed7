// Package reduce implements the router-resident in-network accumulation
// (INA) subsystem: instead of gathering every PE's partial sum into its own
// payload slot and hauling all of them to the global buffer, routers fold
// ("merge") their local operand into a passing accumulate packet's running
// sum, so one constant-length packet arrives at the east sink carrying the
// whole row's reduction. It is the paper's gather protocol run with another
// packet and a fold in place of an append — operands are offered to a
// per-router station, reserved against passing accumulate headers during
// route computation, merged during the body/tail flits' idle RC/VA pipeline
// slots, and recovered by the same δ timeout with a NIC-initiated fallback
// packet — following Tiwari et al.'s follow-on "In-Network Accumulation"
// work (arXiv:2209.10056). Both protocols share one Station type, told
// apart by its Kind.
//
// Arithmetic is exact: merges use wrap-around uint64 addition, and the
// Oracle type computes the same reduction in software so tests can check
// the sink's sums bit for bit, whatever mix of merged and self-initiated
// packets delivered them.
package reduce

import (
	"fmt"

	"gathernoc/internal/flit"
	"gathernoc/internal/ring"
	"gathernoc/internal/topology"
)

// Kind names the protocol a station serves, which its Owner is told with
// every ack.
type Kind uint8

const (
	// GatherStation holds gather payloads (the Gather Payload block).
	GatherStation Kind = iota
	// ReduceStation holds accumulation operands (INA).
	ReduceStation
	// NumKinds counts the kinds. Per-kind state (a router's stations, a
	// NIC's wait lists) is an array of it, walked in kind order.
	NumKinds
)

// Owner is the processing element behind a station: Acked is invoked
// (synchronously, during the router tick) when op, offered to the station
// of kind k, has been taken up by a passing packet — uploaded into a
// gather packet or merged into an accumulate packet. It is the ack path
// from the Gather Payload block back to the PE in Fig. 6. Every operand of
// a station is acked to its one owner, so an entry holds no callback.
type Owner interface {
	Acked(k Kind, op flit.Payload)
}

type entryState uint8

const (
	entryPending entryState = iota + 1
	entryReserved
)

// noHolder is the holder of an entry no packet has reserved.
const noHolder = -1

// entry is one operand queued at a station.
type entry struct {
	operand flit.Payload
	state   entryState
	// holder names, while the entry is reserved, what reserved it: the
	// owning router's input VC slot, through which the router reaches the
	// entry again without keeping a pointer per VC.
	holder int16
}

// Station is the router-resident payload station shared by the gather and
// accumulation protocols: it holds payloads/operands handed over by the
// local PE, reserves them against passing collective headers, and hands
// them to the upload/merge stage. Its kind decides the one rule that
// differs between them, how Reserve matches. A reservation is made for a
// holder, which names it in every later call. The station is passive —
// only the owning router's tick mutates it — so it needs no locking and
// never wakes the router by itself.
type Station struct {
	entries []*entry
	// spares is the entry freelist: completed and retracted entries are
	// recycled so a steady stream of offers allocates nothing.
	spares ring.FreeList[*entry]
	owner  Owner
	cap    int
	kind   Kind
}

// NewStation returns a station of kind k bounding its queue at capacity
// (minimum 1), as a value for its owner to hold in place.
func NewStation(capacity int, k Kind) Station {
	if capacity < 1 {
		capacity = 1
	}
	return Station{cap: capacity, kind: k}
}

// SetOwner attaches the processing element that every completed entry is
// acked to. A station without one acks nobody.
func (s *Station) SetOwner(o Owner) { s.owner = o }

// Offer enqueues an operand, returning false when the station is full.
func (s *Station) Offer(op flit.Payload) bool {
	if len(s.entries) >= s.cap {
		return false
	}
	s.entries = append(s.entries, s.spare(op))
	return true
}

// spare returns a recycled (or new) pending entry holding op.
func (s *Station) spare(op flit.Payload) *entry {
	e, ok := s.spares.Get()
	if !ok {
		e = &entry{}
	}
	*e = entry{operand: op, state: entryPending, holder: noHolder}
	return e
}

// recycle parks a removed entry on the freelist.
func (s *Station) recycle(e *entry) {
	*e = entry{}
	s.spares.Put(e)
}

// Reserve finds the oldest pending operand destined for dst and reserves
// it for holder, reporting whether one matched. A ReduceStation also
// matches the reduction ID, which keeps operands of different rows or
// rounds from folding into the wrong sum; a GatherStation ignores it — the
// gather protocol's Load signal (Algorithm 1), where a payload keeps its
// identity and any passing gather packet to the same destination may pick
// it up.
func (s *Station) Reserve(dst topology.NodeID, reduceID uint64, holder int) bool {
	for _, e := range s.entries {
		if e.state == entryPending && e.operand.Dst == dst &&
			(s.kind == GatherStation || e.operand.ReduceID == reduceID) {
			e.state, e.holder = entryReserved, int16(holder)
			return true
		}
	}
	return false
}

// HeldIndex returns the queue position of the entry reserved for holder,
// or -1 when there is none.
func (s *Station) HeldIndex(holder int) int {
	for i, e := range s.entries {
		if e.state == entryReserved && int(e.holder) == holder {
			return i
		}
	}
	return -1
}

// Held returns the operand reserved for holder; ok is false when there is
// none.
func (s *Station) Held(holder int) (op flit.Payload, ok bool) {
	if i := s.HeldIndex(holder); i >= 0 {
		return s.entries[i].operand, true
	}
	return op, false
}

// Release returns the entry reserved for holder, if any, to pending; used
// when a packet's tail departed without the upload or merge completing
// (defensive: the ASpace arithmetic should make this unreachable).
func (s *Station) Release(holder int) {
	if i := s.HeldIndex(holder); i >= 0 {
		s.entries[i].state, s.entries[i].holder = entryPending, noHolder
	}
}

// Complete removes the entry reserved for holder after its operand was
// uploaded or merged, and acks the operand to the owner.
func (s *Station) Complete(holder int) {
	i := s.HeldIndex(holder)
	if i < 0 {
		return
	}
	e := s.entries[i]
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	if s.owner != nil {
		s.owner.Acked(s.kind, e.operand)
	}
	s.recycle(e)
}

// Retract removes a still-pending operand by sequence number, returning
// false when the operand is absent or already reserved by an in-flight
// packet. The NIC calls this on δ-timeout before initiating its own
// accumulate packet.
func (s *Station) Retract(seq uint64) bool {
	for i, e := range s.entries {
		if e.operand.Seq == seq {
			if e.state != entryPending {
				return false
			}
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			s.recycle(e)
			return true
		}
	}
	return false
}

// Backlog reports how many operands sit in the station (any state).
func (s *Station) Backlog() int { return len(s.entries) }

// Operand is the deterministic synthetic operand PE id contributes to a
// reduction in the given round. The multiplier spreads values across the
// full uint64 range so sums exercise wrap-around arithmetic, which the
// oracle reproduces exactly.
func Operand(id, round int) uint64 {
	return (uint64(id)+1)*0x9E3779B97F4A7C15 + (uint64(round)+3)*0xD1B54A32D192ED03
}

// Oracle is the software reduction reference and the ledger of one round's
// reductions at their collection targets. Add loads each operand a
// reduction is to receive, with the same exact wrap-around uint64
// arithmetic the in-network merge uses; Fold accounts each delivered
// payload against the reduction its ReduceID names. A reduction completes
// once it has folded as many operands as were added, and is then checked
// bit for bit against them, whatever mix of merged and self-initiated
// packets delivered it. The zero value is ready; Reset empties it in place
// for the next round.
type Oracle struct {
	// index maps a ReduceID to its account in accts.
	index map[uint64]int
	accts []account
}

// account is one reduction: what the oracle expects (sum, ops) and what
// its collection target has folded so far (got, gotOps).
type account struct {
	sum, got    uint64
	ops, gotOps int
	done        bool
}

// Reset empties the oracle for the next round, keeping its storage.
func (o *Oracle) Reset() {
	clear(o.index)
	o.accts = o.accts[:0]
}

// Add folds value into the reduction's expected sum and counts it as one
// operand the reduction is to receive.
func (o *Oracle) Add(reduceID, value uint64) {
	i, ok := o.index[reduceID]
	if !ok {
		if o.index == nil {
			o.index = map[uint64]int{}
		}
		i = len(o.accts)
		o.index[reduceID] = i
		o.accts = append(o.accts, account{})
	}
	a := &o.accts[i]
	a.sum += value
	a.ops++
}

// Sum returns the expected sum of the reduction.
func (o *Oracle) Sum(reduceID uint64) uint64 {
	if i, ok := o.index[reduceID]; ok {
		return o.accts[i].sum
	}
	return 0
}

// Fold accounts one delivered payload, its value and its OpsCount, against
// its reduction. complete reports that the payload completed the
// reduction, whose delivered sum is then sum. err is non-nil when the
// payload names no reduction of the oracle, arrives after its reduction
// completed (a duplicate), or completes a reduction whose delivered sum or
// operand count disagrees with the expected ones.
func (o *Oracle) Fold(pl flit.Payload) (sum uint64, complete bool, err error) {
	i, ok := o.index[pl.ReduceID]
	if !ok {
		return 0, false, fmt.Errorf("reduce %d: no such reduction this round", pl.ReduceID)
	}
	a := &o.accts[i]
	if a.done {
		return 0, false, fmt.Errorf("reduce %d: operand after the reduction completed", pl.ReduceID)
	}
	a.got += pl.Value
	a.gotOps += pl.OpsCount()
	if a.gotOps < a.ops {
		return 0, false, nil
	}
	a.done = true
	return a.got, true, a.verify(pl.ReduceID)
}

// verify returns an error describing the first mismatch between the
// delivered (sum, ops) and the expected ones, or nil when they agree
// exactly.
func (a *account) verify(reduceID uint64) error {
	if a.gotOps != a.ops {
		return fmt.Errorf("reduce %d: got %d operands, oracle expects %d", reduceID, a.gotOps, a.ops)
	}
	if a.got != a.sum {
		return fmt.Errorf("reduce %d: got sum %d, oracle expects %d", reduceID, a.got, a.sum)
	}
	return nil
}
