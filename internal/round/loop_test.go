package round

import (
	"reflect"
	"runtime"
	"testing"
	"time"

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
	f.released = append(f.released, release{id, cycle, f.l.nextSeq()})
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
	f.l.Init(f, nodes, rounds, 0)
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

// A payload's sequence number is a bare counter from 1 under the zero tag,
// the encoding every golden pin was recorded with, and carries the tag
// above bit 32 otherwise; the rest of the payload is what Payload was given
// and the width Init was.
func TestNextSeqEncoding(t *testing.T) {
	var l Loop
	l.Init(&fakeHooks{}, 1, 1, 32)
	for want := uint64(1); want <= 3; want++ {
		if got := l.Payload(0, 0, 0, 0, 0, 0).Seq; got != want {
			t.Fatalf("zero tag: Seq = %#x, want %#x", got, want)
		}
	}
	tag := flit.NewTag(3, 2)
	l.SetTag(tag)
	if l.Tag() != tag {
		t.Fatalf("Tag() = %v, want %v", l.Tag(), tag)
	}
	got := l.Payload(5, 9, 77, 1234, 3, 40)
	want := flit.Payload{Seq: uint64(3)<<48 | uint64(2)<<32 | 4, Src: 5, Dst: 9, Bits: 32,
		Value: 1234, ReadyCycle: 40, ReduceID: 77, Ops: 3}
	if got != want {
		t.Fatalf("tag %v: Payload = %+v, want %+v", tag, got, want)
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

// repeatFake is a fakeHooks that can be repeated: AppendState appends what
// state returns (nil state, or nil returned: nothing it can encode) and, with pause set, a
// cycle it waits for from round 1 on, pause cycles after the latest open
// (so round 0's first release reads alike at any lead); Tally reads the
// clock ties, which move in every tally when tied, then the rounds closed.
type repeatFake struct {
	*fakeHooks
	state func() []byte
	pause int64
	tied  bool
	ties  uint64
	// busy runs the fake beside a ticker awake in every cycle, so the
	// engine never jumps.
	busy bool
}

// awake is a ticker that never sleeps.
type awake struct{}

func (awake) Tick(int64) {}

func (r *repeatFake) AppendState(buf []byte, base int64) []byte {
	if r.state == nil || r.state() == nil {
		return nil
	}
	buf = append(buf, r.state()...)
	if n := len(r.opened); r.pause > 0 && n > 1 {
		var e flit.Encoder
		e.Reset(buf, base)
		e.Until(r.opened[n-1] + r.pause)
		buf = e.Bytes()
	}
	return buf
}

func (r *repeatFake) Tally(dst []uint64) []uint64 {
	if r.tied {
		r.ties++
	}
	return append(dst, r.ties, uint64(len(r.closed)))
}

// fakeRotation is the clock period the fakes run under: no round of theirs
// is a whole number of rotations long.
const fakeRotation = 1000

// runProving runs a repeatFake of the given rounds alone on an engine with
// the periodicity proof on, following t when it is not nil, and reports
// the cycle the run stood in for ended at, the engine clock, the latencies
// closed and the engine's error.
func runProving(r *repeatFake, t *Trajectories, rounds int, ready func(round, id int) (int64, bool), budget int64) (end, clock int64, closed []int64, err error) {
	r.fakeHooks = &fakeHooks{l: new(Loop), nodes: 4, ready: ready, hold: 7}
	r.l.Init(r, 4, rounds, 0)
	if t != nil {
		r.l.Join(t, "fake")
		defer r.l.Leave()
	}
	e := sim.NewEngine()
	if r.busy {
		e.AddTicker(awake{})
	}
	proving := r.l.ProveRepeats(e.Cycle()+budget, fakeRotation)
	r.l.Start(e.Cycle())
	done := r.l.Drained
	if proving {
		done = func() bool { return r.l.Settled(e.Cycle()) }
	}
	cycles, err := e.RunWith(r.l, done, budget)
	return cycles + r.l.Skipped(), cycles, r.closed, err
}

// TestProveRepeats holds the fast-forward to the run it stands in for: with
// every round alike, the loop must stop at the open of round 2, close the
// rest with the period's latency and report the cycles it skipped, so the
// closed latencies and the end cycle equal those of a run that simulates
// every round and account the tally's growth over the rounds skipped. The
// loop's own release schedule is part of the encoding, so rounds that
// release on different cycles never match; nor do they when the controller
// cannot encode its state, when the clock ties moved in a period that is
// not a whole number of rotations (declined), when fewer than three rounds
// run, or when the run would end past its budget.
func TestProveRepeats(t *testing.T) {
	even := func(round, id int) (int64, bool) { return 20 + int64(id), true }
	same := func() []byte { return []byte{42} }

	ref := &repeatFake{}
	refEnd, refClock, refClosed, err := runProving(ref, nil, 6, even, 10_000)
	if err != nil || refEnd != refClock || ref.l.Grown() != nil {
		t.Fatalf("a run with nothing to encode fast-forwarded or failed: %v", err)
	}
	ff := &repeatFake{state: same}
	end, clock, closed, err := runProving(ff, nil, 6, even, 10_000)
	if err != nil || end != refEnd || !reflect.DeepEqual(closed, refClosed) {
		t.Errorf("fast-forward ends at %d closing %v (%v), the full run at %d closing %v", end, closed, err, refEnd, refClosed)
	}
	// The rounds closed grow by one a round: four rounds accounted.
	if !reflect.DeepEqual(ff.l.Grown(), []uint64{4}) || clock >= end || len(ff.opened) != 3 {
		t.Errorf("fast-forward accounted %v after %d opens, clock %d of %d; want [4] after 3", ff.l.Grown(), len(ff.opened), clock, end)
	}
	if ff.l.Round() != 6 || !ff.l.Drained() {
		t.Errorf("after the fast-forward the loop is at round %d, drained %v", ff.l.Round(), ff.l.Drained())
	}
	// A budget the full run overruns fails the proving run too.
	if _, _, _, err := runProving(&repeatFake{state: same}, nil, 6, even, refEnd-1); err == nil {
		t.Error("a run past its budget fast-forwarded to success")
	}

	for _, c := range []struct {
		name   string
		r      *repeatFake
		rounds int
		ready  func(round, id int) (int64, bool)
	}{
		{"staggered releases", &repeatFake{state: same}, 6, staggered},
		{"same first release", &repeatFake{state: same}, 6, func(round, id int) (int64, bool) {
			if id == 0 {
				return 20, true
			}
			return 21 + int64((id+round)%3), true
		}},
		{"nothing encodable", &repeatFake{}, 6, even},
		{"declined", &repeatFake{state: same, tied: true}, 6, even},
		{"two rounds", &repeatFake{state: same}, 2, even},
	} {
		t.Run(c.name, func(t *testing.T) {
			end, clock, _, err := runProving(c.r, nil, c.rounds, c.ready, 10_000)
			if err != nil || clock != end || c.r.l.Skipped() != 0 {
				t.Errorf("fast-forwarded: clock %d, end %d (%v)", clock, end, err)
			}
		})
	}
}

// TestTrajectoryReplay holds a replayed run to the one it stands for: in a
// table a first run recorded, a run whose rounds release later after each
// open must close the latencies and end at the cycle simulating it gives,
// without stepping past its first release, and account the growth of
// every round. A lead shorter than the recorded settle time, a lead at another
// residue of the rotation when the clock ties moved, more rounds than the
// trajectory recorded without its proof firing, and a state that encodes
// otherwise each refuse, and the run simulates.
func TestTrajectoryReplay(t *testing.T) {
	same := func() []byte { return []byte{42} }
	lead := func(d int64) func(round, id int) (int64, bool) {
		return func(round, id int) (int64, bool) { return d + int64(id), true }
	}
	replayed := func(f func()) bool {
		before := Replayed()
		f()
		return Replayed() != before
	}

	for _, rounds := range []int{1, 2, 6} {
		var table Trajectories
		if replayed(func() { runProving(&repeatFake{state: same}, &table, rounds, lead(20), 10_000) }) {
			t.Fatalf("%d rounds: the first run of a key replayed", rounds)
		}
		for _, d := range []int64{20, 35, 500} {
			want := &repeatFake{state: same}
			wantEnd, _, wantClosed, err := runProving(want, nil, rounds, lead(d), 10_000)
			if err != nil {
				t.Fatal(err)
			}
			got := &repeatFake{state: same}
			var end, clock int64
			var closed []int64
			if !replayed(func() { end, clock, closed, err = runProving(got, &table, rounds, lead(d), 10_000) }) {
				t.Errorf("%d rounds, lead %d: not replayed", rounds, d)
				continue
			}
			if err != nil || end != wantEnd || !reflect.DeepEqual(closed, wantClosed) {
				t.Errorf("%d rounds, lead %d: replay ends at %d closing %v (%v), simulating at %d closing %v",
					rounds, d, end, closed, err, wantEnd, wantClosed)
			}
			if clock != d || len(got.released) != 0 {
				t.Errorf("%d rounds, lead %d: the replay stepped to cycle %d and released %d operands", rounds, d, clock, len(got.released))
			}
			// Replayed from its first release, the run accounts the growth
			// of every round: each closes one.
			if g := got.l.Grown(); len(g) != 1 || g[0] != uint64(rounds) {
				t.Errorf("%d rounds, lead %d: replay accounted %v", rounds, d, g)
			}
		}
	}

	// The fake waits 30 cycles after each open: the state settles then.
	var table, tied Trajectories
	runProving(&repeatFake{state: same, pause: 30}, &table, 2, lead(40), 10_000)
	runProving(&repeatFake{state: same, tied: true}, &tied, 2, lead(20), 10_000)
	for _, c := range []struct {
		name   string
		table  *Trajectories
		r      *repeatFake
		rounds int
		lead   int64
		budget int64
		want   bool
	}{
		{"lead at settle", &table, &repeatFake{state: same, pause: 30}, 2, 30, 10_000, true},
		{"lead below settle", &table, &repeatFake{state: same, pause: 30}, 2, 29, 10_000, false},
		{"more rounds than recorded", &table, &repeatFake{state: same, pause: 30}, 6, 40, 10_000, false},
		{"another state", &table, &repeatFake{state: func() []byte { return []byte{43} }, pause: 30}, 2, 40, 10_000, false},
		{"past the budget", &table, &repeatFake{state: same, pause: 30}, 2, 40, 100, false},
		{"ties a rotation apart", &tied, &repeatFake{state: same, tied: true}, 2, 20 + fakeRotation, 10_000, true},
		{"ties at another residue", &tied, &repeatFake{state: same, tied: true}, 2, 21, 10_000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var end int64
			var err error
			if got := replayed(func() { end, _, _, err = runProving(c.r, c.table, c.rounds, lead(c.lead), c.budget) }); got != c.want {
				t.Errorf("replayed %v, want %v", got, c.want)
			}
			if c.want {
				if wantEnd, _, _, _ := runProving(&repeatFake{state: same}, nil, c.rounds, lead(c.lead), c.budget); err != nil || end != wantEnd {
					t.Errorf("replay ends at %d (%v), simulating at %d", end, err, wantEnd)
				}
			}
		})
	}
}

// TestTrajectoryRecording holds a recording run to what it may file: a
// trajectory that stands for the runs that replay it, or none. A run whose
// state the controller cannot encode at its first release, or from round 1
// on, whose rounds release at different leads, whose engine never jumps
// to a release (nothing shows the state stayed put), whose state waits
// for a cycle past the release, or whose proof was refused for its budget
// files nothing: a run after it simulates. A run that cannot encode its
// own first release does not replay either.
func TestTrajectoryRecording(t *testing.T) {
	same := func() []byte { return []byte{42} }
	even := func(round, id int) (int64, bool) { return 20 + int64(id), true }
	replays := func(table *Trajectories, r *repeatFake) bool {
		before := Replayed()
		runProving(r, table, 6, even, 10_000)
		return Replayed() != before
	}
	// roundOne encodes round 0's first release, and nothing from round 1 on.
	roundOne := &repeatFake{}
	roundOne.state = func() []byte {
		if len(roundOne.opened) > 1 {
			return nil
		}
		return []byte{42}
	}
	for _, c := range []struct {
		name   string
		r      *repeatFake
		ready  func(round, id int) (int64, bool)
		budget int64
	}{
		{"nothing encodable", &repeatFake{}, even, 10_000},
		{"nothing encodable from round 1", roundOne, even, 10_000},
		{"leads differ", &repeatFake{state: same}, staggered, 10_000},
		{"no jump", &repeatFake{state: same, busy: true}, even, 10_000},
		{"waits past the release", &repeatFake{state: same, pause: 1000}, even, 10_000},
		{"proof past the budget", &repeatFake{state: same}, even, 150},
	} {
		t.Run(c.name, func(t *testing.T) {
			var table Trajectories
			runProving(c.r, &table, 6, c.ready, c.budget)
			if replays(&table, &repeatFake{state: same}) {
				t.Error("a run replayed what the recording filed")
			}
		})
	}

	var table Trajectories
	runProving(&repeatFake{state: same}, &table, 6, even, 10_000)
	if replays(&table, &repeatFake{}) {
		t.Error("a run that cannot encode its first release replayed")
	}
	if !replays(&table, &repeatFake{state: same}) {
		t.Error("the recorded trajectory was not replayed")
	}
}

// holdFirst returns a state function whose first call signals held and
// blocks until gate closes, then encodes 42; later calls return what then
// does. A recorder's first call comes at round 0's first release, once it
// has claimed its key: it holds the key there.
func holdFirst(held chan<- struct{}, gate <-chan struct{}, then func() []byte) func() []byte {
	first := true
	return func() []byte {
		if first {
			first = false
			close(held)
			<-gate
			return []byte{42}
		}
		return then()
	}
}

// joined is what a run that followed a table ended with.
type joined struct {
	end    int64
	closed []int64
	err    error
}

// race runs rec on table until it holds the key at its first release,
// then follower on the same key until it waits for rec's recording, then
// lets rec go, and returns how both runs ended. It fails the test, rather
// than hang, when the follower does not wait or is not let go, and when a
// goroutine outlives the runs.
func race(t *testing.T, table *Trajectories, rec *repeatFake, recBudget int64, follower *repeatFake) (recRun, follow joined) {
	t.Helper()
	entry := runtime.NumGoroutine()
	even := func(round, id int) (int64, bool) { return 20 + int64(id), true }
	held, gate := make(chan struct{}), make(chan struct{})
	rec.state = holdFirst(held, gate, rec.state)
	// One send each: a run ends even when the test gave up on it.
	recDone, followDone := make(chan joined, 1), make(chan joined, 1)
	go func() {
		end, _, closed, err := runProving(rec, table, 6, even, recBudget)
		recDone <- joined{end, closed, err}
	}()
	<-held
	waited := Waited()
	go func() {
		end, _, closed, err := runProving(follower, table, 6, even, 10_000)
		followDone <- joined{end, closed, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); Waited() == waited; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("the follower did not wait for the recording")
		}
	}
	close(gate)
	recRun = <-recDone
	select {
	case follow = <-followDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower was not let go when the recording ended")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > entry; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), entry)
		}
	}
	return recRun, follow
}

// TestTrajectoryWaitsForRecording: a run that reaches its first release
// while another run records its key waits for that recording, replays it
// once it is published, and ends as simulating it would.
func TestTrajectoryWaitsForRecording(t *testing.T) {
	same := func() []byte { return []byte{42} }
	even := func(round, id int) (int64, bool) { return 20 + int64(id), true }
	wantEnd, _, wantClosed, err := runProving(&repeatFake{state: same}, nil, 6, even, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var table Trajectories
	recorded, replayed := Recorded(), Replayed()
	follower := &repeatFake{state: same}
	rec, follow := race(t, &table, &repeatFake{state: same}, 10_000, follower)
	if rec.err != nil || follow.err != nil {
		t.Fatalf("recorder %v, follower %v", rec.err, follow.err)
	}
	if Recorded()-recorded != 1 || Replayed()-replayed != 1 || len(follower.released) != 0 {
		t.Errorf("%d recorded, %d replayed, the follower released %d operands; want 1, 1 and none",
			Recorded()-recorded, Replayed()-replayed, len(follower.released))
	}
	if follow.end != wantEnd || !reflect.DeepEqual(follow.closed, wantClosed) {
		t.Errorf("the follower ends at %d closing %v, simulating at %d closing %v", follow.end, follow.closed, wantEnd, wantClosed)
	}
}

// TestTrajectoryUnpublishedReleasesWaiters: a recording that ends
// unpublished, given up at a settle or cut short by an error, lets the
// run waiting for it go, which simulates, records in its stead, and
// leaves the key to a third run to replay.
func TestTrajectoryUnpublishedReleasesWaiters(t *testing.T) {
	same := func() []byte { return []byte{42} }
	even := func(round, id int) (int64, bool) { return 20 + int64(id), true }
	wantEnd, _, wantClosed, err := runProving(&repeatFake{state: same}, nil, 6, even, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		rec    *repeatFake
		budget int64
		err    bool
	}{
		// Nothing encodes from round 1 on: the settle gives the recording up.
		{"abandoned", &repeatFake{state: func() []byte { return nil }}, 10_000, false},
		// The budget runs out in round 1, with the recording open.
		{"error", &repeatFake{state: same}, 40, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var table Trajectories
			recorded, replayed := Recorded(), Replayed()
			follower := &repeatFake{state: same}
			rec, follow := race(t, &table, c.rec, c.budget, follower)
			if (rec.err != nil) != c.err || follow.err != nil {
				t.Fatalf("recorder %v, follower %v", rec.err, follow.err)
			}
			if Replayed() != replayed || len(follower.released) == 0 || Recorded()-recorded != 1 {
				t.Errorf("%d replayed, %d recorded, the follower released %d operands: want it simulated and recorded",
					Replayed()-replayed, Recorded()-recorded, len(follower.released))
			}
			if follow.end != wantEnd || !reflect.DeepEqual(follow.closed, wantClosed) {
				t.Errorf("the follower ends at %d closing %v, simulating at %d closing %v", follow.end, follow.closed, wantEnd, wantClosed)
			}
			third := &repeatFake{state: same}
			if end, _, _, err := runProving(third, &table, 6, even, 10_000); err != nil || end != wantEnd || len(third.released) != 0 {
				t.Errorf("a third run ended at %d (%v) releasing %d operands, want the follower's recording replayed", end, err, len(third.released))
			}
		})
	}
}
