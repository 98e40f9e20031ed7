package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gathernoc/internal/sim"
	"gathernoc/internal/stats"
)

// chunkCycles is how many cycles one traced Engine.RunUntil call covers.
// Spans cannot be recorded per cycle from outside the engine without
// costing more than the cycle itself on the idle workloads, so the traced
// op steps the engine in chunks and reports per-cycle host time as the
// chunk mean.
const chunkCycles = 64

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; Parent indexes the span that caused it (-1 for a
// root). The layer a span belongs to is its name up to the first dot.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory from the one goroutine that drives an op.
// A nil tracer records nothing, so untraced ops share the code path and
// pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	// used[i] is how much of span i's interval its aggregated children
	// (see leaf) already occupy.
	used map[int]int64
	// chunkNS samples the mean host nanoseconds per cycle of every
	// traced engine chunk.
	chunkNS stats.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), used: map[int]int64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.epoch))
}

// leaf records time accumulated over many short calls (one driver's Tick
// calls during an engine chunk) as a single child of parent. Aggregated
// children are laid end to end from the parent's start, so siblings never
// overlap and self time stays duration minus children.
func (t *tracer) leaf(name string, parent int, ns int64) int {
	start := t.spans[parent].Start + t.used[parent]
	t.used[parent] += ns
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + ns, Parent: parent})
	return len(t.spans) - 1
}

// adopt grafts the spans another tracer recorded under the innermost open
// span, so a probe that needs its own totals still shows in the span file
// and the self-time roll-up.
func (t *tracer) adopt(o *tracer) {
	base, parent := len(t.spans), t.stack[len(t.stack)-1]
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		s.Start += shift
		s.End += shift
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durations samples the durations of every span with the given name, in
// seconds.
func (t *tracer) durations(name string) *stats.Sample {
	var out stats.Sample
	for _, s := range t.spans {
		if s.Name == name {
			out.Observe(float64(s.End-s.Start) / 1e9)
		}
	}
	return &out
}

// layerShare is one row of the self-time roll-up.
type layerShare struct {
	Layer string
	SelfS float64
	Share float64
}

// selfTimes rolls the span tree up by layer: a span's self time is its
// duration minus its children's, a layer's is the sum over its spans, and
// the share is taken of the summed root durations. Children that outlast
// their parent (overlapping or unclosed spans) would give a negative self
// time; it is counted as zero, so the shares then exceed 100 % and the
// 100 ± 1 check fails.
func (t *tracer) selfTimes() ([]layerShare, error) {
	self := make([]int64, len(t.spans))
	var rootNS int64
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		} else {
			rootNS += d
		}
	}
	byLayer := map[string]int64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		byLayer[layer] += max(self[i], 0)
	}
	rows := make([]layerShare, 0, len(byLayer))
	var sum float64
	for layer, ns := range byLayer {
		share := 0.0
		if rootNS > 0 {
			share = float64(ns) / float64(rootNS) * 100
		}
		sum += share
		rows = append(rows, layerShare{Layer: layer, SelfS: float64(ns) / 1e9, Share: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Layer < rows[j].Layer
	})
	if len(rows) > 0 && (sum < 99 || sum > 101) {
		return rows, fmt.Errorf("self-time shares sum to %.2f%%, want 100±1", sum)
	}
	return rows, nil
}

// tickClock accumulates the host time of one driver's Tick calls between
// two flushes. parent names the clock whose Tick calls this one's (a
// scheduler ticking its phase drivers), nil for a clock the engine calls.
type tickClock struct {
	span   string
	parent *tickClock
	ns     int64
	id     int
}

func (c *tickClock) time(tick func(int64), cycle int64) {
	t0 := time.Now()
	tick(cycle)
	c.ns += int64(time.Since(t0))
}

// timedTicker times an engine-level ticker (a generator or a scheduler).
// It must not implement sim.Idler unless the wrapped ticker does; none of
// the drivers registered here do, so schedules are unchanged.
type timedTicker struct {
	inner sim.Ticker
	clock *tickClock
}

func (t *timedTicker) Tick(cycle int64) { t.clock.time(t.inner.Tick, cycle) }

// drive is the traced form of Engine.RunUntil(done, maxCycles): the same
// steps in the same order, issued as chunkCycles-long RunUntil calls whose
// predicate counts steps. done is evaluated once more per chunk than in
// the untraced run and must be pure. clocks are flushed into aggregated
// child spans after every chunk, parents before children. pause, when
// non-nil, runs between chunks with the engine at a cycle boundary.
//
// A watchdog installed on the engine never fires here, because RunUntil
// polls it less often than once a chunk; wd, when non-nil, is polled
// between chunks instead, so a wedged traced run stops as an untraced
// one does.
func (t *tracer) drive(eng *sim.Engine, done func() bool, maxCycles int64, clocks []*tickClock, wd *sim.Watchdog, pause func(cycle int64)) (int64, error) {
	start := eng.Cycle()
	var progress uint64
	progressAt := start
	for {
		steps, finished := 0, false
		id := t.begin("sim.Engine.RunUntil")
		cycle, err := eng.RunUntil(func() bool {
			if done() {
				finished = true
				return true
			}
			if steps == chunkCycles {
				return true
			}
			steps++
			return false
		}, maxCycles-(eng.Cycle()-start))
		t.end()
		for _, c := range clocks {
			parent := id
			if c.parent != nil {
				parent = c.parent.id
			}
			c.id = t.leaf(c.span, parent, c.ns)
			c.ns = 0
		}
		if steps > 0 {
			t.chunkNS.Observe(float64(t.spans[id].End-t.spans[id].Start) / float64(steps))
		}
		if err != nil || finished {
			return cycle, err
		}
		if wd != nil {
			if p := wd.Progress(); p != progress {
				progress, progressAt = p, cycle
			} else if cycle-progressAt >= wd.Window {
				return cycle, fmt.Errorf("%w (traced run, cycle %d, window %d)", sim.ErrStalled, cycle, wd.Window)
			}
		}
		if pause != nil {
			pause(cycle)
		}
	}
}
