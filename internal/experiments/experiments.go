// Package experiments regenerates every table and figure of the paper's
// evaluation section (Table I–III, Fig. 1, Figs. 7–10) plus the ablations
// DESIGN.md calls out. Each experiment returns machine-readable rows and a
// rendered text table printing the same series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
)

// Options tune the whole experiment suite.
type Options struct {
	// Rounds is the number of simulated rounds per run (0 = 2).
	Rounds int
	// Meshes lists the mesh sizes to evaluate (nil = the paper's 8x8 and
	// 16x16).
	Meshes []int
	// Workers bounds the sweep worker pool: each simulation point runs on
	// its own Network, so points execute concurrently without affecting
	// the per-point results or their ordering. 0 selects GOMAXPROCS; 1
	// forces serial execution.
	Workers int
	// Ctx, when non-nil, stops sweeps between simulation points; a point
	// already running completes before the cancellation error surfaces
	// (nil = Background).
	Ctx context.Context
	// Model selects the CNN for the whole-model pipeline comparison
	// ("" = alexnet; "vgg16" for the deeper model).
	Model string
	// Jobs is the batch size of the multi-job experiment (0 = 4).
	Jobs int
	// Overlap selects double-buffered pipelining for the multi-job
	// experiment's inference phases (false = strict barrier).
	Overlap bool
	// Cache, when non-nil, memoizes the gather-vs-RU comparison cells by
	// their canonical content key: a sweep consults it before dispatching
	// a cell and stores every miss, so repeated suites (and overlapping
	// sweeps — the figures and ablations share cells) warm-start instead
	// of resimulating. Nil leaves every cell simulated, bit-identical to
	// the uncached code path.
	Cache *Cache
}

func (o Options) meshes() []int {
	if len(o.Meshes) == 0 {
		return []int{8, 16}
	}
	return o.Meshes
}

func (o Options) core() core.Options {
	return core.Options{Rounds: o.Rounds}
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) model() string {
	if o.Model == "" {
		return "alexnet"
	}
	return o.Model
}

func (o Options) jobs() int {
	if o.Jobs <= 0 {
		return 4
	}
	return o.Jobs
}

// rounds resolves the simulated rounds per run (Options.Rounds, 0 = 2 like
// the figure sweeps).
func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return 2
	}
	return o.Rounds
}

// ImprovementRow is one bar of Figs. 7–10: a layer on a mesh size with its
// gather-vs-RU improvement.
type ImprovementRow struct {
	Model       string
	Layer       string
	Mesh        int
	Improvement float64
}

// Table2Row pairs the estimated and simulated improvements (Table II).
type Table2Row struct {
	Layer     string
	Estimated float64
	Simulated float64
}

// Table2 reproduces Table II: estimated vs simulated total-latency
// improvement for AlexNet's five convolution layers on the 8x8 mesh.
func Table2(opts Options) ([]Table2Row, error) {
	points := comparePoints(cnn.AlexNetConvLayers(), []int{8})
	cmps, err := compareSweep(points, opts)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	rows := make([]Table2Row, len(points))
	for i, cmp := range cmps {
		rows[i] = Table2Row{
			Layer:     points[i].layer.Name,
			Estimated: cmp.EstimatedImprovementPct,
			Simulated: cmp.LatencyImprovementPct,
		}
	}
	return rows, nil
}

// RenderTable2 formats Table II rows like the paper.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: estimated vs simulated total-latency improvement, AlexNet, 8x8 mesh (%)\n")
	b.WriteString("Result    ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s", r.Layer)
	}
	b.WriteString("\nEstimated ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f", r.Estimated)
	}
	b.WriteString("\nSimulated ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f", r.Simulated)
	}
	b.WriteString("\n")
	return b.String()
}

// improvementFigure runs the gather-vs-RU comparison for a layer list
// across mesh sizes on the sweep pool and projects one improvement metric
// per point.
func improvementFigure(layers []cnn.LayerConfig, opts Options, metric func(*core.Comparison) float64) ([]ImprovementRow, error) {
	points := comparePoints(layers, opts.meshes())
	cmps, err := compareSweep(points, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]ImprovementRow, len(points))
	for i, cmp := range cmps {
		rows[i] = ImprovementRow{
			Model: points[i].layer.Model, Layer: points[i].layer.Name,
			Mesh:        points[i].mesh,
			Improvement: metric(cmp),
		}
	}
	return rows, nil
}

// latencyFigure runs the gather-vs-RU latency comparison for a layer list
// across mesh sizes (Figs. 7 and 8).
func latencyFigure(layers []cnn.LayerConfig, opts Options) ([]ImprovementRow, error) {
	return improvementFigure(layers, opts, func(c *core.Comparison) float64 {
		return c.LatencyImprovementPct
	})
}

// powerFigure runs the gather-vs-RU NoC-energy comparison (Figs. 9 and 10).
func powerFigure(layers []cnn.LayerConfig, opts Options) ([]ImprovementRow, error) {
	return improvementFigure(layers, opts, func(c *core.Comparison) float64 {
		return c.PowerImprovementPct
	})
}

// Fig7 reproduces Fig. 7: total-latency improvement for AlexNet on 8x8 and
// 16x16 meshes.
func Fig7(opts Options) ([]ImprovementRow, error) {
	return latencyFigure(cnn.AlexNetConvLayers(), opts)
}

// Fig8 reproduces Fig. 8: total-latency improvement for the paper's
// selected VGG-16 layers on 8x8 and 16x16 meshes.
func Fig8(opts Options) ([]ImprovementRow, error) {
	return latencyFigure(cnn.VGG16SelectedConvLayers(), opts)
}

// Fig9 reproduces Fig. 9: NoC dynamic-power improvement for AlexNet.
func Fig9(opts Options) ([]ImprovementRow, error) {
	return powerFigure(cnn.AlexNetConvLayers(), opts)
}

// Fig10 reproduces Fig. 10: NoC dynamic-power improvement for VGG-16.
func Fig10(opts Options) ([]ImprovementRow, error) {
	return powerFigure(cnn.VGG16SelectedConvLayers(), opts)
}

// RenderImprovements formats figure rows as a mesh-by-layer table.
func RenderImprovements(title, unit string, rows []ImprovementRow) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	byMesh := map[int][]ImprovementRow{}
	var meshes []int
	for _, r := range rows {
		if _, ok := byMesh[r.Mesh]; !ok {
			meshes = append(meshes, r.Mesh)
		}
		byMesh[r.Mesh] = append(byMesh[r.Mesh], r)
	}
	if len(rows) > 0 {
		b.WriteString("Mesh    ")
		for _, r := range byMesh[meshes[0]] {
			fmt.Fprintf(&b, "%8s", r.Layer)
		}
		b.WriteString("\n")
	}
	for _, mesh := range meshes {
		fmt.Fprintf(&b, "%dx%-5d", mesh, mesh)
		for _, r := range byMesh[mesh] {
			fmt.Fprintf(&b, "%8.2f", r.Improvement)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(%s)\n", unit)
	return b.String()
}

// Fig1Result quantifies the Fig. 1 example: hop counts for collecting one
// row of a 6x6 mesh with repetitive unicast vs one gather packet.
type Fig1Result struct {
	MeshSize    int
	Row         int
	UnicastHops int
	GatherHops  int
}

// Fig1 computes the motivating hop-count example of Fig. 1.
func Fig1() Fig1Result {
	m := topology.MustMesh(6, 6)
	row := 2
	dst := m.ID(topology.Coord{Row: row, Col: 5})
	total := 0
	for c := 0; c < 6; c++ {
		total += m.Hops(m.ID(topology.Coord{Row: row, Col: c}), dst)
	}
	return Fig1Result{
		MeshSize:    6,
		Row:         row,
		UnicastHops: total,
		GatherHops:  m.Hops(m.ID(topology.Coord{Row: row, Col: 0}), dst),
	}
}

// RenderFig1 formats the Fig. 1 example.
func RenderFig1(r Fig1Result) string {
	return fmt.Sprintf(
		"Fig. 1: collecting row %d of a %dx%d mesh into the global buffer\n"+
			"  repetitive unicast: %d hops\n"+
			"  gather packet:      %d hops\n",
		r.Row, r.MeshSize, r.MeshSize, r.UnicastHops, r.GatherHops)
}

// RenderTable1 prints the Table I network configuration for a mesh size.
func RenderTable1(rows, cols int) string {
	cfg := noc.DefaultConfig(rows, cols)
	var b strings.Builder
	b.WriteString("Table I: network configuration\n")
	fmt.Fprintf(&b, "  Topology            %dx%d Mesh\n", rows, cols)
	fmt.Fprintf(&b, "  Virtual Channels    %d\n", cfg.Router.VCs)
	fmt.Fprintf(&b, "  Router Pipeline     RC/VA/SA+ST/link (kappa=%d cycles/hop)\n", cfg.HeaderHopLatency())
	fmt.Fprintf(&b, "  Buffer Depth        %d flits\n", cfg.Router.BufferDepth)
	gflits := 4
	if f, err := cfg.Format(); err == nil {
		gflits = f.GatherFlits(cfg.EffectiveGatherCapacity())
	}
	fmt.Fprintf(&b, "  Packet Size         Gather: %d flits, Other: %d flits\n", gflits, cfg.UnicastFlits)
	fmt.Fprintf(&b, "  Flit Size           %d bits\n", cfg.FlitBits)
	fmt.Fprintf(&b, "  Gather Payload      %d bits\n", cfg.PayloadBits)
	fmt.Fprintf(&b, "  T_MAC               %d cycles\n", cnn.TMAC)
	fmt.Fprintf(&b, "  Delta               %d cycles (scaled per column)\n", cfg.Delta)
	fmt.Fprintf(&b, "  Buffer transaction  %d cycles/packet\n", cfg.SinkPacketOverhead)
	return b.String()
}

// RenderTable3 prints the Table III layer parameters.
func RenderTable3() string {
	var b strings.Builder
	b.WriteString("Table III: convolution layers (kernels CxQ@RxR, output Q@HxH)\n")
	for _, l := range cnn.AlexNetConvLayers() {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, l := range cnn.VGG16SelectedConvLayers() {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}
