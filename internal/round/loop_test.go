package round

import (
	"reflect"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/nic"
	"gathernoc/internal/sim"
)

// release identifies one operand by who produced it, when it was released
// and the sequence number the release gave it.
type release struct {
	ID    int
	Cycle int64
	Seq   uint64
}

// fakeHooks is a controller with no network behind it: ready gives each
// node's ready time as an offset from the round's opening cycle (ok false:
// the node sits the round out), and a round is complete hold cycles after
// its last release, or after its opening when nothing is released. Its
// Advance waits for the clock, so it names the cycle it waits for (WakeAt).
type fakeHooks struct {
	l     *Loop
	nodes int
	ready func(round, id int) (offset int64, ok bool)
	hold  int64

	quietAt  int64
	released []release
	opened   []int64
	closed   []int64
}

func (f *fakeHooks) BeginRound(now int64) {
	f.opened = append(f.opened, now)
	f.quietAt = now + f.hold
	for id := 0; id < f.nodes; id++ {
		if offset, ok := f.ready(f.l.Round(), id); ok {
			f.l.Ready(id, now+offset)
		}
	}
}

func (f *fakeHooks) Inject(id int, cycle int64) {
	f.released = append(f.released, release{id, cycle, f.l.NextSeq()})
	f.quietAt = cycle + f.hold
}

func (f *fakeHooks) Advance(cycle int64) bool {
	if cycle < f.quietAt {
		f.l.WakeAt(f.quietAt)
		return false
	}
	return f.l.pending == 0
}

func (f *fakeHooks) RoundClosed(latency int64) { f.closed = append(f.closed, latency) }

func newFake(nodes, rounds int, hold int64, ready func(round, id int) (int64, bool)) *fakeHooks {
	f := &fakeHooks{l: new(Loop), nodes: nodes, ready: ready, hold: hold}
	f.l.Init(f, nodes, rounds)
	return f
}

// fullScanDue is the reference release is held to: a scan over every node
// on every cycle of a round. It returns the nodes due at cycle, in release
// order.
func fullScanDue(readyAt []int64, cycle int64) []int {
	var due []int
	for id, at := range readyAt {
		if at != never && at <= cycle {
			due = append(due, id)
		}
	}
	return due
}

// drive starts the loop at cycle start and ticks it to Done, recording
// before each tick what the per-cycle full scan would release in it and
// calling after (when set) once the tick returns.
func drive(t *testing.T, f *fakeHooks, start int64, after func(cycle int64)) (want []release) {
	t.Helper()
	l := f.l
	l.Start(start)
	for cycle := start; !l.Done(); cycle++ {
		if cycle > start+10_000 {
			t.Fatalf("loop not done after 10000 cycles: round %d, %d pending, next due %d", l.round, l.pending, l.nextDue)
		}
		for i, id := range fullScanDue(l.readyAt, cycle) {
			want = append(want, release{id, cycle, l.seq + uint64(i) + 1})
		}
		l.Tick(cycle)
		if after != nil {
			after(cycle)
		}
	}
	return want
}

// staggered spreads completion over eleven cycles, differently each round,
// so most scans that release something leave other nodes pending and the
// next-due cycle is recomputed many times per round.
func staggered(round, id int) (int64, bool) { return 20 + int64((id*5+round*3)%11), true }

func distinctCycles(rs []release) int {
	cycles := map[int64]bool{}
	for _, r := range rs {
		cycles[r.Cycle] = true
	}
	return len(cycles)
}

func TestReleaseMatchesPerCycleFullScan(t *testing.T) {
	const nodes, rounds = 16, 3
	f := newFake(nodes, rounds, 7, staggered)
	want := drive(t, f, 5, nil)
	if !reflect.DeepEqual(f.released, want) {
		t.Fatalf("releases differ from the per-cycle full scan\n got %v\nwant %v", f.released, want)
	}
	if len(want) != nodes*rounds {
		t.Fatalf("%d releases, want %d", len(want), nodes*rounds)
	}
	if n := distinctCycles(want); n < 3*rounds {
		t.Fatalf("only %d distinct release cycles over %d rounds: completion was not staggered", n, rounds)
	}
	// Each round closes hold cycles after its last release (offset 30) and
	// the next opens on the closing cycle.
	if !reflect.DeepEqual(f.closed, []int64{37, 37, 37}) || !reflect.DeepEqual(f.opened, []int64{5, 42, 79}) {
		t.Fatalf("rounds opened at %v with latencies %v, want [5 42 79] and [37 37 37]", f.opened, f.closed)
	}
	if f.l.Round() != rounds {
		t.Fatalf("Round() = %d after the run, want %d", f.l.Round(), rounds)
	}
}

// A pure broadcast has no leaves: the hook declares no node, the loop
// releases nothing and rounds open and close on the hook's word alone.
func TestNoReadyNode(t *testing.T) {
	f := newFake(8, 2, 4, func(int, int) (int64, bool) { return 0, false })
	if want := drive(t, f, 0, nil); want != nil || f.released != nil {
		t.Fatalf("released %v (full scan %v) with no node declared", f.released, want)
	}
	if !reflect.DeepEqual(f.opened, []int64{0, 4}) || !reflect.DeepEqual(f.closed, []int64{4, 4}) {
		t.Fatalf("rounds opened at %v with latencies %v, want [0 4] and [4 4]", f.opened, f.closed)
	}
}

// Weight-stationary declares the bottom row only: the undeclared nodes are
// never injected and never hold a round open.
func TestStrictSubsetReady(t *testing.T) {
	const nodes, rounds = 16, 3
	f := newFake(nodes, rounds, 2, func(round, id int) (int64, bool) {
		offset, _ := staggered(round, id)
		return offset, id >= 12
	})
	want := drive(t, f, 0, nil)
	if !reflect.DeepEqual(f.released, want) {
		t.Fatalf("releases differ from the per-cycle full scan\n got %v\nwant %v", f.released, want)
	}
	if len(want) != 4*rounds {
		t.Fatalf("%d releases, want %d", len(want), 4*rounds)
	}
	for _, r := range want {
		if r.ID < 12 {
			t.Fatalf("undeclared node %d released at cycle %d", r.ID, r.Cycle)
		}
	}
}

// Injected turns true with the last release of the last round, while that
// round's collection is still open; Drained and Done only once it closes.
// After that a Tick changes nothing.
func TestInjectedDrainedDone(t *testing.T) {
	const nodes, rounds = 16, 3
	f := newFake(nodes, rounds, 7, staggered)
	l := f.l
	draining := 0
	drive(t, f, 0, func(cycle int64) {
		if got, want := l.Injected(), len(f.released) == nodes*rounds; got != want {
			t.Fatalf("cycle %d: Injected() = %v with %d of %d operands released", cycle, got, len(f.released), nodes*rounds)
		}
		closed := len(f.closed) == rounds
		if l.Drained() != closed || l.Done() != closed {
			t.Fatalf("cycle %d: Drained() = %v, Done() = %v with %d of %d rounds closed", cycle, l.Drained(), l.Done(), len(f.closed), rounds)
		}
		if l.Injected() && !l.Drained() {
			draining++
		}
	})
	if draining != 7 {
		t.Fatalf("Injected without Drained on %d cycles, want the 7 the last collection takes", draining)
	}

	loop, released, opened, closed := *l, len(f.released), len(f.opened), len(f.closed)
	l.Tick(10_000)
	if !reflect.DeepEqual(*l, loop) || len(f.released) != released || len(f.opened) != opened || len(f.closed) != closed {
		t.Fatal("Tick after Done changed the loop or reached a hook")
	}
}

// NextSeq is a bare counter from 1 under the zero tag, the encoding every
// golden pin was recorded with, and carries the tag above bit 32 otherwise.
func TestNextSeqEncoding(t *testing.T) {
	var l Loop
	for want := uint64(1); want <= 3; want++ {
		if got := l.NextSeq(); got != want {
			t.Fatalf("zero tag: NextSeq() = %#x, want %#x", got, want)
		}
	}
	tag := flit.NewTag(3, 2)
	l.SetTag(tag)
	if l.Tag() != tag {
		t.Fatalf("Tag() = %v, want %v", l.Tag(), tag)
	}
	if got, want := l.NextSeq(), uint64(3)<<48|uint64(2)<<32|4; got != want {
		t.Fatalf("tag %v: NextSeq() = %#x, want %#x", tag, got, want)
	}
}

// Route sends a payload tagged for another controller home through the
// foreign handler when one is installed, and to the owner otherwise (where
// it is counted as an error).
func TestRouteForeignPayloads(t *testing.T) {
	var l Loop
	mine, other := flit.NewTag(1, 0), flit.NewTag(2, 1)
	l.SetTag(mine)
	p := &nic.ReceivedPacket{Payloads: []flit.Payload{
		{Seq: 1, ReduceID: flit.TaggedReduceID(mine, 0, 0)},
		{Seq: 2, ReduceID: flit.TaggedReduceID(other, 0, 0)},
		{Seq: 3, ReduceID: flit.TaggedReduceID(mine, 1, 0)},
	}}
	var own, foreign []uint64
	record := func(to *[]uint64) func(flit.Payload) {
		return func(pl flit.Payload) { *to = append(*to, pl.Seq) }
	}
	l.Route(p, record(&own))
	if !reflect.DeepEqual(own, []uint64{1, 2, 3}) {
		t.Fatalf("no handler: owner got %v, want all three", own)
	}
	own = nil
	l.SetForeignPayloadHandler(record(&foreign))
	l.Route(p, record(&own))
	if !reflect.DeepEqual(own, []uint64{1, 3}) || !reflect.DeepEqual(foreign, []uint64{2}) {
		t.Fatalf("owner got %v, foreign handler %v, want [1 3] and [2]", own, foreign)
	}
}

// Registered with an engine for the length of a run (Engine.RunWith, what
// workload.Run does), the loop is ticked until the last round closes and
// leaves no ticker behind. It holds its wake handle, so it sleeps through
// each round's compute stretch and the engine jumps it: the loop is
// evaluated in fewer cycles than the run lasts. A budget too small for the
// rounds is an error.
func TestRunOnEngine(t *testing.T) {
	f := newFake(4, 2, 3, staggered)
	e := sim.NewEngine()
	f.l.Start(0)
	mark := e.Mark()
	cycles, err := e.RunWith(f.l, f.l.Done, 1000)
	if err != nil || !f.l.Done() {
		t.Fatalf("RunWith: %v, done %v", err, f.l.Done())
	}
	// The closing tick runs in the step that takes the engine to cycles.
	if last := f.opened[1] + f.closed[1]; cycles != last+1 {
		t.Fatalf("RunWith returned cycle %d, want %d", cycles, last+1)
	}
	if e.Mark() != mark {
		t.Fatal("RunWith left the loop registered")
	}
	if e.Jumps() == 0 || e.Evaluated() >= uint64(cycles) {
		t.Fatalf("the loop never slept: %d jumps, %d evaluations in %d cycles", e.Jumps(), e.Evaluated(), cycles)
	}

	f = newFake(4, 2, 3, staggered)
	f.l.Start(0)
	if _, err := sim.NewEngine().RunWith(f.l, f.l.Done, 10); err == nil {
		t.Fatal("RunWith within 10 cycles: no error")
	}
}
