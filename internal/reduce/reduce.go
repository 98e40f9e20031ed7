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

// AckFunc is invoked (synchronously, during the router tick) when an
// operand offered to the station has been merged into a passing accumulate
// packet — the INA analogue of the gather ack path back to the PE.
type AckFunc func(op flit.Payload)

type entryState uint8

const (
	entryPending entryState = iota + 1
	entryReserved
)

// Entry is one operand queued at a router's accumulation station.
type Entry struct {
	operand flit.Payload
	state   entryState
	ack     AckFunc
}

// Operand returns the queued operand.
func (e *Entry) Operand() flit.Payload { return e.operand }

// Station is the router-resident payload station shared by the gather and
// accumulation protocols: it holds payloads/operands handed over by the
// local PE, reserves them against passing collective headers, and hands
// them to the upload/merge stage. Gather reservations match on
// destination only (ReserveByDst); accumulate reservations additionally
// match the reduction ID (Reserve). It is passive — only the owning
// router's tick mutates it — so it needs no locking and never wakes the
// router by itself.
type Station struct {
	entries []*Entry
	// spares is the entry freelist: completed and retracted entries are
	// recycled so a steady stream of offers allocates nothing.
	spares ring.FreeList[*Entry]
	cap    int
}

// NewStation returns a station bounding its queue at capacity (minimum 1),
// as a value for its owner to hold in place.
func NewStation(capacity int) Station {
	if capacity < 1 {
		capacity = 1
	}
	return Station{cap: capacity}
}

// Offer enqueues an operand, returning false when the station is full.
func (s *Station) Offer(op flit.Payload, ack AckFunc) bool {
	if len(s.entries) >= s.cap {
		return false
	}
	e, ok := s.spares.Get()
	if !ok {
		e = &Entry{}
	}
	e.operand = op
	e.state = entryPending
	e.ack = ack
	s.entries = append(s.entries, e)
	return true
}

// recycle parks a removed entry on the freelist.
func (s *Station) recycle(e *Entry) {
	*e = Entry{}
	s.spares.Put(e)
}

// Reserve finds the oldest pending operand destined for dst and tagged
// with the given reduction ID, marks it reserved and returns it; ok is
// false when none matches. Matching on the reduction ID keeps operands of
// different rows or rounds from folding into the wrong sum.
func (s *Station) Reserve(dst topology.NodeID, reduceID uint64) (*Entry, bool) {
	for _, e := range s.entries {
		if e.state == entryPending && e.operand.Dst == dst && e.operand.ReduceID == reduceID {
			e.state = entryReserved
			return e, true
		}
	}
	return nil, false
}

// ReserveByDst finds the oldest pending payload destined for dst whatever
// its reduction tag — the gather protocol's Load signal (Algorithm 1),
// where a payload keeps its identity and any passing gather packet to the
// same destination may pick it up.
func (s *Station) ReserveByDst(dst topology.NodeID) (*Entry, bool) {
	for _, e := range s.entries {
		if e.state == entryPending && e.operand.Dst == dst {
			e.state = entryReserved
			return e, true
		}
	}
	return nil, false
}

// Release returns a reserved entry to pending; used when an accumulate
// packet's tail departed without the merge completing (defensive: the
// ASpace arithmetic should make this unreachable).
func (s *Station) Release(e *Entry) {
	e.state = entryPending
}

// Complete removes an entry after its operand was merged and fires the ack
// callback. The entry is recycled; callers must drop their reference.
func (s *Station) Complete(e *Entry) {
	for i, cur := range s.entries {
		if cur == e {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			break
		}
	}
	if e.ack != nil {
		e.ack(e.operand)
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
