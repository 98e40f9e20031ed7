package experiments

import (
	"reflect"
	"slices"
	"testing"

	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/stats"
)

// relation is what a knob setting's run of a collection mode is expected
// to be to the paper point's run of that mode: the same in every number
// the artifacts read, or not.
type relation string

const (
	same    relation = "same"
	differs relation = "differs"
)

// invariance is one knob setting held against the paper's operating point
// (Table I: 4 VCs of depth 4, XY routing, gather sharing the VCs): the
// knob, its value, where the question comes from, the relation its RU and
// its gather run bear to the paper point's, and why.
type invariance struct {
	knob, value, source string
	ru, gather          relation
	why                 string
	mutate              func(*noc.Config)
}

// paperPointInvariances are the knobs the paper's operating point does not
// feel, and one it does. The only contention there is at the sink
// (DESIGN.md §3): a row's packets reach the buffer one behind the other
// whatever the VCs, and collection traffic runs east along its row, where
// every routing takes the same path.
var paperPointInvariances = []invariance{
	{"VCs", "1", "Table I", same, same, "the sink serializes the collection, not the VCs",
		func(c *noc.Config) { c.Router.VCs = 1 }},
	{"VCs", "2", "Table I", same, same, "the sink serializes the collection, not the VCs",
		func(c *noc.Config) { c.Router.VCs = 2 }},
	{"VCs", "8", "Table I", same, same, "the sink serializes the collection, not the VCs",
		func(c *noc.Config) { c.Router.VCs = 8 }},
	{"GatherVC", "VCs-1", "Sec. VI, DESIGN.md §3", same, same, "with no other traffic a dedicated gather VC has nothing to avoid; under background load it does (mixed)",
		func(c *noc.Config) { c.Router.GatherVC = c.Router.VCs - 1 }},
	{"Routing", "westfirst", "Table I, DESIGN.md §3", same, same, "collection runs east along its row, where west-first has no choice to make",
		func(c *noc.Config) { c.Routing = "westfirst" }},
	{"BufferDepth", "2", "Table I", same, differs, "a 2-flit buffer holds a 2-flit RU packet but not a 4-flit gather packet: gather collection 38 -> 40 cycles on 8x8, 73 -> 79 on 16x16",
		func(c *noc.Config) { c.Router.BufferDepth = 2 }},
}

// runFacts is what the invariance compares of one run: the Record's
// cycles, its rounds' and collections' samples, the δ fallbacks, the NoC
// activity, and the NoC energy the power figures derive from it.
type runFacts struct {
	MeasuredCycles          int64
	RoundCycles, Collection stats.Sample
	SelfInitiatedGathers    uint64
	Activity                noc.Activity
	NoCPJ                   float64
}

func factsOf(r *core.LayerReport) runFacts {
	f := runFacts{
		MeasuredCycles:       r.Result.MeasuredCycles,
		SelfInitiatedGathers: r.Result.SelfInitiatedGathers,
		Activity:             r.Result.Activity,
		NoCPJ:                r.Energy.NoCPJ,
		RoundCycles:          r.Result.RoundCycles,
		Collection:           r.Result.CollectionCycles,
	}
	return f
}

// holdInvariances runs AlexNet Conv3 on 8x8 and 16x16 at the paper's
// operating point and at each setting of paperPointInvariances whose knob
// is among knobs, both collection modes, and holds every setting to its
// relations over whole runs: a run related "same" must reproduce the paper
// point's run's cycles, samples, δ fallbacks, activity and energy exactly,
// a run related "differs" must move at least one of them.
func holdInvariances(t *testing.T, knobs ...string) {
	t.Helper()
	var rows []invariance
	for _, row := range paperPointInvariances {
		if slices.Contains(knobs, row.knob) {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no invariance rows for knobs %v", knobs)
	}
	meshes := []int{8, 16}
	var points []comparePoint
	for _, mesh := range meshes {
		points = append(points, comparePoint{mesh: mesh, layer: ablationLayer()})
		for _, row := range rows {
			points = append(points, comparePoint{mesh: mesh, layer: ablationLayer(),
				mutate: func(o *core.Options) { o.MutateNetwork = row.mutate }})
		}
	}
	cmps, err := compareSweep(points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stride := 1 + len(rows)
	for m, mesh := range meshes {
		paper := cmps[m*stride]
		for i, row := range rows {
			cmp := cmps[m*stride+1+i]
			for _, mode := range []struct {
				name    string
				want    relation
				got, at *core.LayerReport
			}{{"RU", row.ru, cmp.RU, paper.RU}, {"gather", row.gather, cmp.Gather, paper.Gather}} {
				got, at := factsOf(mode.got), factsOf(mode.at)
				if reflect.DeepEqual(got, at) != (mode.want == same) {
					t.Errorf("%dx%d %s, %s=%s (%s: %s): want the %s run, got\n  %+v\nagainst the paper point's\n  %+v",
						mesh, mesh, mode.name, row.knob, row.value, row.source, row.why, mode.want, got, at)
				}
			}
		}
	}
}

// TestPaperPointInvariance holds the VC-count and buffer-depth rows. The
// depth-2 gather run is the comparison's own check: it moves collection by
// 2 cycles.
func TestPaperPointInvariance(t *testing.T) {
	holdInvariances(t, "VCs", "BufferDepth")
}

// TestAblationGatherVC holds the dedicated-gather-VC row: at the paper
// point, with no other traffic, reserving VC VCs-1 for gather changes no
// run of either mode.
func TestAblationGatherVC(t *testing.T) {
	holdInvariances(t, "GatherVC")
}

// TestAblationRoutingConsistency holds the west-first row: collection
// traffic is purely eastward, so XY and west-first must agree over whole
// runs (the adaptive machinery has no choices to make).
func TestAblationRoutingConsistency(t *testing.T) {
	holdInvariances(t, "Routing")
}
