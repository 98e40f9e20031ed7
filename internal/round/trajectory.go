package round

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Trajectories is a table of recorded round trajectories (DESIGN.md §8,
// "Across layers"). A loop run alone that follows it (Join) either
// replays a trajectory an earlier run recorded under the same key, when
// that run's rounds provably stand for its own, or simulates, recording
// its own when the key has none. A layer's collection never reads its
// compute time, so layers that differ only in what they compute collect
// alike: the key names what the collection depends on, and the replay
// checks the rest. The zero value is an empty table; it is safe for
// concurrent use, and each key is recorded once: a run that reaches its
// first release while another records its key waits for that recording,
// and replays it, or, when it ends unpublished, simulates and may record.
type Trajectories struct {
	mu sync.Mutex
	m  map[any]*slot
}

// slot is a key's place in a table: the trajectory published there, nil
// while a run records one, and the channel the recording's end closes.
type slot struct {
	tr   *trajectory
	done chan struct{}
}

// trajectory is what a recording run saw, from the boundary before its
// first release on.
type trajectory struct {
	// enc is the state at that boundary: the controller's and the
	// fabric's (Repeater.AppendState) and the loop's release schedule,
	// relative to the cycle before.
	enc []byte
	// lead is the cycles from a round's open to its first release, first
	// the cycle of round 0's; ties says whether the clock ties moved in the
	// trajectory, which then repeats only a whole number of rotations away.
	lead, first int64
	ties        bool
	// rounds are the rounds the run simulated; fired says that the
	// periodicity proof fast-forwarded at the open after the last one.
	rounds []recorded
	fired  bool
}

// recorded is one simulated round of a trajectory.
type recorded struct {
	// collect is the cycles from the round's first release to its close.
	// settle is the cycles after the close from which the state stayed put
	// until the next release: nothing awake, no timer armed and an
	// encoding that reads alike at any later boundary (never when the next
	// release was not recorded).
	collect, settle int64
	// tally is the counters' growth (Repeater.Tally) from the first
	// release to the boundary after the close.
	tally []uint64
}

// claim returns the trajectory published under key; else, while another
// run records one there, the channel that recording's end closes; else it
// makes the caller the key's recorder and returns the slot to end.
func (t *Trajectories) claim(key any) (tr *trajectory, wait <-chan struct{}, own *slot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.m[key]; s != nil {
		return s.tr, s.done, nil
	}
	if t.m == nil {
		t.m = make(map[any]*slot)
	}
	s := &slot{done: make(chan struct{})}
	t.m[key] = s
	return nil, nil, s
}

// end closes the recording in s, the slot key's recorder claimed:
// publishing tr, or, when tr is nil, leaving the key to the next run that
// reaches it. Either way the runs waiting on it go on.
func (t *Trajectories) end(key any, s *slot, tr *trajectory) {
	t.mu.Lock()
	if tr != nil {
		s.tr = tr
	} else {
		delete(t.m, key)
	}
	t.mu.Unlock()
	close(s.done)
}

// The table counters, process-wide: runs built from a table, trajectories
// published, and runs that waited for another run's recording.
var replays, records, waits atomic.Uint64

// Replayed returns how many loop runs, process-wide, were built from a
// recorded trajectory (Join) instead of simulated.
func Replayed() uint64 { return replays.Load() }

// Recorded returns how many trajectories, process-wide, runs recorded and
// published in a table.
func Recorded() uint64 { return records.Load() }

// Waited returns how many loop runs, process-wide, reached their first
// release while another run recorded their key, and waited for it.
func Waited() uint64 { return waits.Load() }

// follower is a run's part in a trajectory table.
type follower struct {
	t   *Trajectories
	key any
	// rec is the trajectory the run is recording, nil once it cannot stand
	// for another run; own is the key's slot it records into, held until
	// the recording ends; tally0 is the tally at its first release.
	rec    *trajectory
	own    *slot
	tally0 []uint64
	// seen and closed count the rounds whose first release the run has
	// reached and that have closed; release and close are the cycles of
	// the latest; last is the clock at the previous boundary.
	seen, closed         int
	release, close, last int64
}

// Join has the loop follow t under key: run alone and proving
// (ProveRepeats), it replays the trajectory recorded there when that one
// stands for its own, and records its own when there is none. The key must
// name everything the rounds' collection depends on besides the state
// encoded at the first release and the release cycles; call Join before
// ProveRepeats, and Leave once the run is over, however it ended.
func (l *Loop) Join(t *Trajectories, key any) {
	l.follow = &follower{t: t, key: key}
}

// Leave ends the loop's part in the table it joined: a recording the run
// did not finish (an error, a run cut short) ends unpublished, and the
// runs waiting for it go on. It does nothing for a loop that joined none,
// or whose run published or gave up its recording.
func (l *Loop) Leave() {
	if l.follow != nil {
		l.follow.abandon()
	}
}

// abandon gives up the recording, if the run holds one: nothing is
// published, and the runs waiting for the key simulate.
func (f *follower) abandon() {
	f.rec = nil
	if f.own != nil {
		f.t.end(f.key, f.own, nil)
		f.own = nil
	}
}

// trace is Settled's part in the table, at every boundary: it takes what
// a later run needs to replay this one, and at round 0's first release
// replays an earlier one instead when it can.
func (l *Loop) trace(cycle int64) {
	f := l.follow
	if f.rec != nil && l.round > f.closed {
		// A round closed in the cycle before the boundary.
		b := l.buf
		b.tally = l.rep.Tally(b.tally[:0])
		f.close = cycle - 1
		f.rec.rounds = append(f.rec.rounds, recorded{
			collect: f.close - f.release,
			settle:  never,
			tally:   extend(nil, nil, f.tally0, b.tally, 1),
		})
		f.closed++
	}
	if !l.done && f.seen == l.round && l.nextDue == cycle {
		// The open round's first release is due in this cycle.
		f.seen++
		switch {
		case l.round == 0:
			l.first(cycle)
		case f.rec != nil:
			l.settle(cycle)
		}
		f.release = cycle
	}
	f.last = cycle
}

// first replays the trajectory recorded under the run's key if it stands
// for this run, and starts recording when there is none (the table keeps
// the one it has); while another run records the key it waits for that
// run's recording to end. cycle is round 0's first release.
func (l *Loop) first(cycle int64) {
	f, b := l.follow, l.buf
	for waited := false; ; {
		tr, wait, own := f.t.claim(f.key)
		if tr != nil {
			l.replay(tr, cycle)
			return
		}
		if own != nil {
			f.own = own
			break
		}
		if !waited {
			waited = true
			waits.Add(1)
		}
		<-wait
	}
	enc := l.rep.AppendState(b.rel[0][:0], cycle-1)
	if enc == nil {
		f.abandon()
		return
	}
	enc = l.appendState(enc, cycle-1)
	b.rel[0] = enc
	f.rec = &trajectory{enc: bytes.Clone(enc), lead: cycle - l.start, first: cycle}
	f.tally0 = l.rep.Tally(nil)
}

// settle measures how long the fabric took to settle after the previous
// round closed; cycle is the open round's first release. The engine
// reached the boundary in a jump from the previous one, so nothing was
// awake from there on and no timer came due before cycle: the state stayed
// put. It may still wait for a cycle (a sink's pause), and reads alike only
// from the boundary that cycle has passed: the settle boundary is the
// earliest whose encoding equals the release's, found by a galloping
// search from the jump. A run whose lead is at least as long reaches the
// same state, encoded the same at its release. A state that reads alike
// only at the release itself proves nothing, and is not recorded.
func (l *Loop) settle(cycle int64) {
	f, b := l.follow, l.buf
	if cycle-l.start != f.rec.lead || cycle-f.last < 2 {
		f.abandon()
		return
	}
	now := l.rep.AppendState(b.rel[1][:0], cycle-1)
	if now == nil {
		f.abandon()
		return
	}
	b.rel[1] = now
	// reads reports whether the state encodes at boundary q as at the
	// release.
	reads := func(q int64) bool {
		at := l.rep.AppendState(b.rel[0][:0], q-1)
		if at != nil {
			b.rel[0] = at
		}
		return at != nil && bytes.Equal(at, now)
	}
	lo, hi := f.last-1, f.last
	for step := int64(1); hi < cycle && !reads(hi); step *= 2 {
		lo, hi = hi, min(hi+step, cycle)
	}
	for hi < cycle && hi-lo > 1 {
		if mid := lo + (hi-lo)/2; reads(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if hi == cycle {
		f.abandon()
		return
	}
	f.rec.rounds[len(f.rec.rounds)-1].settle = hi - f.close
}

// replay builds the run from tr, recorded under the same key, at the
// boundary before round 0's first release (cycle), if tr stands for it:
// its lead is no shorter than any settle time the rounds it needs took, it
// meets the rotation in the same phase when the clock ties moved, it ends
// within its budget, and its state encodes to tr's. Then every round this
// run would simulate collects as tr's did, and the proof fires where tr's
// did. The loop closes the rounds with this run's lead plus tr's
// collection and accounts tr's counter growth, and is done.
func (l *Loop) replay(tr *trajectory, cycle int64) bool {
	lead, m := cycle-l.start, len(tr.rounds)
	k := min(l.rounds, m)
	fires := l.rounds > m
	if fires && !tr.fired {
		return false
	}
	for _, r := range tr.rounds[:k-1] {
		if lead < r.settle {
			return false
		}
	}
	if tr.ties && ((lead-tr.lead)%l.rotation != 0 || (cycle-tr.first)%l.rotation != 0) {
		return false
	}
	end := cycle + int64(k-1)*lead + 1
	for _, r := range tr.rounds[:k] {
		end += r.collect
	}
	left := l.rounds - k
	period := lead + tr.rounds[k-1].collect
	if end += int64(left) * period; end > l.limit {
		return false
	}
	b := l.buf
	enc := l.rep.AppendState(b.rel[0][:0], cycle-1)
	if enc == nil {
		return false
	}
	enc = l.appendState(enc, cycle-1)
	b.rel[0] = enc
	if !bytes.Equal(enc, tr.enc) {
		return false
	}
	for _, r := range tr.rounds[:k-1] {
		l.h.RoundClosed(lead + r.collect)
	}
	last := tr.rounds[k-1].tally
	if fires {
		l.grown = extend(nil, last, tr.rounds[k-2].tally, last, left)
	} else {
		l.grown = last
	}
	l.h.RoundClosed(period)
	l.finish(end-cycle, period, left)
	replays.Add(1)
	return true
}

// publish files the trajectory the run recorded, once it is done.
func (l *Loop) publish() {
	f := l.follow
	if f.rec == nil || len(f.rec.rounds) == 0 {
		f.abandon()
		return
	}
	f.rec.ties = f.rec.rounds[len(f.rec.rounds)-1].tally[0] != 0
	f.rec.fired = len(f.rec.rounds) < l.rounds
	f.t.end(f.key, f.own, f.rec)
	records.Add(1)
	f.rec, f.own = nil, nil
}
