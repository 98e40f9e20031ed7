// Package reduce implements the router-resident in-network accumulation
// (INA) subsystem: instead of gathering every PE's partial sum into its own
// payload slot and hauling all of them to the global buffer, routers fold
// ("merge") their local operand into a passing accumulate packet's running
// sum, so one constant-length packet arrives at the east sink carrying the
// whole row's reduction. The protocol mirrors the paper's gather support —
// operands are offered to a per-router station, reserved against passing
// accumulate headers during route computation, merged during the body/tail
// flits' idle RC/VA pipeline slots, and recovered by a δ-style timeout with
// a NIC-initiated fallback packet — following Tiwari et al.'s follow-on
// "In-Network Accumulation" work (arXiv:2209.10056).
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
// them to the upload/merge stage. Gather reservations match on
// destination only (ReserveByDst); accumulate reservations additionally
// match the reduction ID (Reserve). A reservation is made for a holder,
// which names it in every later call. The station is passive — only the
// owning router's tick mutates it — so it needs no locking and never wakes
// the router by itself.
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

// Reserve finds the oldest pending operand destined for dst and tagged
// with the given reduction ID and reserves it for holder, reporting
// whether one matched. Matching on the reduction ID keeps operands of
// different rows or rounds from folding into the wrong sum.
func (s *Station) Reserve(dst topology.NodeID, reduceID uint64, holder int) bool {
	for _, e := range s.entries {
		if e.state == entryPending && e.operand.Dst == dst && e.operand.ReduceID == reduceID {
			e.state, e.holder = entryReserved, int16(holder)
			return true
		}
	}
	return false
}

// ReserveByDst finds the oldest pending payload destined for dst whatever
// its reduction tag and reserves it for holder — the gather protocol's
// Load signal (Algorithm 1), where a payload keeps its identity and any
// passing gather packet to the same destination may pick it up.
func (s *Station) ReserveByDst(dst topology.NodeID, holder int) bool {
	for _, e := range s.entries {
		if e.state == entryPending && e.operand.Dst == dst {
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

// Oracle is the software reduction reference: it accumulates every operand
// of each reduction with the same exact wrap-around uint64 arithmetic the
// in-network merge uses, so a sink's received sums can be checked bit for
// bit against it.
type Oracle struct {
	sums map[uint64]uint64
	ops  map[uint64]int
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{sums: map[uint64]uint64{}, ops: map[uint64]int{}}
}

// Add folds value into the reduction's expected sum.
func (o *Oracle) Add(reduceID, value uint64) {
	o.sums[reduceID] += value
	o.ops[reduceID]++
}

// Sum returns the expected sum of the reduction.
func (o *Oracle) Sum(reduceID uint64) uint64 { return o.sums[reduceID] }

// Verify returns an error describing the first mismatch between the
// received (sum, ops) and the oracle's expectation, or nil when they agree
// exactly.
func (o *Oracle) Verify(reduceID, gotSum uint64, gotOps int) error {
	if gotOps != o.ops[reduceID] {
		return fmt.Errorf("reduce %d: got %d operands, oracle expects %d", reduceID, gotOps, o.ops[reduceID])
	}
	if gotSum != o.sums[reduceID] {
		return fmt.Errorf("reduce %d: got sum %d, oracle expects %d", reduceID, gotSum, o.sums[reduceID])
	}
	return nil
}
