package traffic

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gathernoc/internal/cnn"
	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/noc"
	"gathernoc/internal/reduce"
	"gathernoc/internal/sim"
	"gathernoc/internal/topology"
)

// Event kinds in a trace.
const (
	// EventUnicast injects a unicast packet (optionally carrying a result
	// payload).
	EventUnicast = "unicast"
	// EventMulticast injects a multicast packet to Dsts.
	EventMulticast = "multicast"
	// EventGather injects a gather packet carrying the source's payload.
	EventGather = "gather"
	// EventPayload deposits a gather payload for piggybacking (the
	// Algorithm 1 path).
	EventPayload = "payload"
)

// Errors NewReplayer wraps when it rejects a trace event.
var (
	// errNodeOutOfRange: a src, dst or multicast destination names no node
	// (or, for dst, no row sink) of the network.
	errNodeOutOfRange = errors.New("node out of range")
	// errEmptyMulticast: a multicast event lists no destinations.
	errEmptyMulticast = errors.New("multicast without destinations")
	// errNegativeFlits: an event asks for a negative packet length.
	errNegativeFlits = errors.New("negative packet length")
)

// Event is one line of a JSON-lines traffic trace.
type Event struct {
	// Cycle is the injection cycle.
	Cycle int64 `json:"cycle"`
	// Type is one of the Event* kinds.
	Type string `json:"type"`
	// Src and Dst are node ids (Dst may address a row sink).
	Src int `json:"src"`
	Dst int `json:"dst,omitempty"`
	// Dsts lists multicast destinations.
	Dsts []int `json:"dsts,omitempty"`
	// Flits overrides the packet length (0 = configured default).
	Flits int `json:"flits,omitempty"`
	// Seq and Value tag the carried payload for integrity checking.
	Seq   uint64 `json:"seq,omitempty"`
	Value uint64 `json:"value,omitempty"`
}

// Write streams events as JSON lines.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("traffic: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines trace.
func Read(r io.Reader) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("traffic: read event %d: %w", len(events), err)
		}
		events = append(events, e)
	}
}

// GenerateLayerTrace synthesizes the result-collection traffic of one
// convolution round on a rows×cols array, in the given collection mode —
// the equivalent of the paper's per-layer trace generation. startCycle is
// when the round's results become ready (C·R·R + T_MAC after streaming
// starts); sinkBase is the node id of row 0's buffer sink.
func GenerateLayerTrace(layer cnn.LayerConfig, rows, cols int, gather bool, startCycle int64, sinkBase int) []Event {
	var events []Event
	seq := uint64(0)
	for r := 0; r < rows; r++ {
		dst := sinkBase + r
		for c := 0; c < cols; c++ {
			src := r*cols + c
			seq++
			switch {
			case !gather:
				events = append(events, Event{
					Cycle: startCycle, Type: EventUnicast, Src: src, Dst: dst,
					Seq: seq, Value: uint64(src),
				})
			case c == 0:
				events = append(events, Event{
					Cycle: startCycle, Type: EventGather, Src: src, Dst: dst,
					Seq: seq, Value: uint64(src),
				})
			default:
				events = append(events, Event{
					Cycle: startCycle, Type: EventPayload, Src: src, Dst: dst,
					Seq: seq, Value: uint64(src),
				})
			}
		}
	}
	return events
}

// Replayer injects a recorded trace into a network at the recorded cycles,
// either standalone (Run) or as a workload.Driver phase — under a
// scheduler, event cycles are relative to the phase's admission cycle and
// the scheduler dispatches the phase's tagged packets back to OnPacket.
type Replayer struct {
	nw     *noc.Network
	events []Event
	next   int
	tag    flit.Tag
	// foreign, when set, receives payloads that arrived inside this
	// phase's packets but carry another phase's tag in their ReduceID —
	// a replayed gather packet can pick up a concurrent phase's payload
	// at a shared station, and the scheduler routes it home through this
	// hook (workload.ForeignPayloadRouter).
	foreign func(flit.Payload)
	// base is the cycle event timestamps are measured from: 0 standalone,
	// the phase admission cycle under a scheduler.
	base int64
	// wake is the handle of the replayer's own engine registration (Run),
	// nil when a scheduler ticks it every cycle.
	wake *sim.Handle
	// outstanding counts expected delivery units not yet observed by
	// OnPacket: one per unicast/gather event, one per multicast
	// destination, one per deposited payload. Each arriving packet retires
	// one unit for itself plus one per piggybacked (non-seeded) payload,
	// whichever packet carried it — so δ-timeout self-initiations do not
	// skew the account.
	outstanding int64
	// EventsInjected counts injected events.
	EventsInjected uint64
}

// SetTag assigns the workload tag replayed packets are sent under
// (workload.Taggable).
func (rp *Replayer) SetTag(t flit.Tag) { rp.tag = t }

// SetForeignPayloadHandler installs the hook receiving payloads that
// arrived in this phase's packets but belong to another phase
// (workload.ForeignPayloadRouter).
func (rp *Replayer) SetForeignPayloadHandler(fn func(flit.Payload)) { rp.foreign = fn }

// Start begins the replay clock at the given cycle (workload.Driver).
func (rp *Replayer) Start(cycle int64) { rp.base = cycle }

// SetWake attaches the handle of the replayer's engine registration
// (sim.Engine.RunWith does), which lets it sleep from one record to the next.
func (rp *Replayer) SetWake(h *sim.Handle) { rp.wake = h }

// Idle implements sim.Idler for a replayer that holds its wake handle:
// between records its tick is a no-op, and Idle arms the timer for the next
// one.
func (rp *Replayer) Idle() bool {
	if rp.wake == nil {
		return false
	}
	if rp.next < len(rp.events) {
		rp.wake.WakeAt(rp.base + rp.events[rp.next].Cycle)
	}
	return true
}

// Injected reports whether every event has been injected
// (workload.Driver overlap edge; identical to Done).
func (rp *Replayer) Injected() bool { return rp.Done() }

// Drained reports whether the trace is injected and every expected
// delivery has been observed (workload.Driver barrier edge). Meaningful
// only when the phase's packets are dispatched to OnPacket — the
// standalone Run path uses network quiescence instead.
func (rp *Replayer) Drained() bool { return rp.Done() && rp.outstanding == 0 }

// OnPacket retires the delivery units an arriving packet accounts for:
// the packet itself plus any of this phase's payloads beyond the one the
// packet's injection event seeded. Under a scheduler, payloads tagged
// for another phase (picked up at a shared station en route) are routed
// home through the foreign handler instead of being counted here.
func (rp *Replayer) OnPacket(p *nic.ReceivedPacket) {
	own := 0
	for _, pl := range p.Payloads {
		if rp.tag != 0 && flit.ReduceIDTag(pl.ReduceID) != rp.tag {
			if rp.foreign != nil {
				rp.foreign(pl)
			}
			continue
		}
		own++
	}
	units := int64(1 + own)
	switch p.PT {
	case flit.Gather:
		units-- // the gather (or self-initiated) packet seeded one payload
	case flit.Unicast:
		if own > 0 {
			units-- // payload-carrying unicast: the payload is the packet
		}
	}
	rp.outstanding -= units
}

// OnPayload retires one delivery unit for a payload of this phase that
// arrived inside another phase's packet (workload.PayloadSink).
func (rp *Replayer) OnPayload(pl flit.Payload) { rp.outstanding-- }

// NewReplayer validates the trace against the network and prepares the
// replay. Events must be sorted by cycle.
func NewReplayer(nw *noc.Network, events []Event) (*Replayer, error) {
	nodes := nw.Topology().NumNodes()
	sinks := 0
	if nw.Config().EastSinks {
		sinks = nw.Config().Rows
	}
	last := int64(-1)
	for i, e := range events {
		if e.Cycle < last {
			return nil, fmt.Errorf("traffic: event %d out of order (cycle %d after %d)", i, e.Cycle, last)
		}
		last = e.Cycle
		if e.Src < 0 || e.Src >= nodes {
			return nil, fmt.Errorf("traffic: event %d: src %d: %w", i, e.Src, errNodeOutOfRange)
		}
		if e.Type != EventMulticast && (e.Dst < 0 || e.Dst >= nodes+sinks) {
			return nil, fmt.Errorf("traffic: event %d: dst %d: %w", i, e.Dst, errNodeOutOfRange)
		}
		if e.Flits < 0 {
			return nil, fmt.Errorf("traffic: event %d: %d flits: %w", i, e.Flits, errNegativeFlits)
		}
		switch e.Type {
		case EventMulticast:
			if len(e.Dsts) == 0 {
				return nil, fmt.Errorf("traffic: event %d: %w", i, errEmptyMulticast)
			}
			for _, d := range e.Dsts {
				if d < 0 || d >= nodes {
					return nil, fmt.Errorf("traffic: event %d: multicast dst %d: %w", i, d, errNodeOutOfRange)
				}
			}
		case EventUnicast, EventGather, EventPayload:
		default:
			return nil, fmt.Errorf("traffic: event %d: unknown type %q", i, e.Type)
		}
	}
	return &Replayer{nw: nw, events: events}, nil
}

// Done reports whether every event has been injected.
func (rp *Replayer) Done() bool { return rp.next >= len(rp.events) }

// Tick injects all events scheduled at or before the current cycle
// (relative to the replay's Start cycle).
func (rp *Replayer) Tick(cycle int64) {
	rel := cycle - rp.base
	for rp.next < len(rp.events) && rp.events[rp.next].Cycle <= rel {
		e := rp.events[rp.next]
		rp.next++
		rp.EventsInjected++
		src := topology.NodeID(e.Src)
		n := rp.nw.NIC(src)
		// Payload sequence numbers are namespaced by the workload tag like
		// the accumulation controller's (tag<<32 | trace seq), so a
		// replayed phase's payloads cannot collide with another phase's at
		// a shared NIC wait list or router station, and the ReduceID
		// carries the tag so a payload picked up by another phase's
		// packet can be routed home. Untagged standalone replays keep the
		// trace's raw seqs and a zero ReduceID.
		seq := e.Seq
		var rid uint64
		if rp.tag != 0 {
			seq = uint64(rp.tag)<<32 | (e.Seq & 0xFFFFFFFF)
			rid = flit.TaggedReduceID(rp.tag, 0, 0)
		}
		payload := flit.Payload{
			Seq: seq, Src: src, Dst: topology.NodeID(e.Dst),
			Bits: rp.nw.Config().PayloadBits, Value: e.Value, ReadyCycle: cycle,
			ReduceID: rid,
		}
		switch e.Type {
		case EventUnicast:
			rp.outstanding++
			if e.Flits > 0 {
				n.SendUnicastN(rp.tag, topology.NodeID(e.Dst), e.Flits)
			} else {
				n.SendUnicastPayload(rp.tag, topology.NodeID(e.Dst), payload)
			}
		case EventMulticast:
			set := topology.NewDestSet(rp.nw.Topology().NumNodes())
			for _, d := range e.Dsts {
				set.Add(topology.NodeID(d))
			}
			flits := e.Flits
			if flits == 0 {
				flits = rp.nw.Config().UnicastFlits
			}
			rp.outstanding += int64(set.Len())
			n.SendMulticast(rp.tag, set, flits)
		case EventGather:
			rp.outstanding++
			n.SendGather(rp.tag, topology.NodeID(e.Dst), &payload)
		case EventPayload:
			rp.outstanding++
			n.SubmitPayload(reduce.GatherStation, rp.tag, payload)
		}
	}
}

// Run registers the replayer for the length of the run and runs until the
// trace is injected and the network drains.
func (rp *Replayer) Run(maxCycles int64) (int64, error) {
	done := func() bool { return rp.Done() && rp.nw.Quiescent() }
	return rp.nw.Engine().RunWith(rp, done, maxCycles)
}
