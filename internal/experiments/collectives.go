package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/collective"
	"gathernoc/internal/core"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// CollectiveRow is one cell of the mesh-wide collective comparison: an
// all-reduce under one transport on one fabric, or the repeated
// row-collection baseline that delivers every row's reduction to the
// global buffer separately.
type CollectiveRow struct {
	Mesh      int
	Algorithm string
	// RoundCycles is the mean round latency (compute included);
	// PacketLatency the mean end-to-end packet latency.
	RoundCycles   float64
	PacketLatency float64
	// RootFlits counts the flit transactions at the reduction's final
	// ejection point: the tree root for the collectives, the row sinks
	// summed for the baseline. This is the serialization the tree
	// amortizes — the paper's sink-port argument lifted from one row to
	// the whole fabric.
	RootFlits uint64
	// Merges counts piggyback uploads and in-network merges;
	// SelfInitiated the δ-timeout fallback packets.
	Merges        uint64
	SelfInitiated uint64
	// LinkFlits is the total channel traffic; NoCPJ the network dynamic
	// energy of the simulated rounds.
	LinkFlits uint64
	NoCPJ     float64
}

// collectivePoint is one (mesh, algorithm) cell; the empty algorithm
// marks the repeated row-gather baseline.
type collectivePoint struct {
	mesh int
	alg  collective.Algorithm
}

// CollectiveBaseline names the repeated row-collection comparison rows.
const CollectiveBaseline = "rowgather"

// collectiveComputeLatency fixes the modeled per-round compute time so
// rows differ only in transport.
const collectiveComputeLatency = 32

// CollectiveComparison runs the mesh-wide all-reduce comparison: the
// two-level collective tree (gather transport), the flat-unicast
// baseline, the INA-fused tree, and — as the "no mesh-wide collective"
// reference — repeated row-gather collection, which lands one packet per
// row per round at the global-buffer sinks and leaves the cross-row
// reduction to the buffer. One simulation point per (mesh, algorithm) on
// the sweep pool.
func CollectiveComparison(opts Options) ([]CollectiveRow, error) {
	meshes := opts.meshes()
	algs := []collective.Algorithm{collective.AlgTree, collective.AlgFlat, collective.AlgFused}
	points := make([]collectivePoint, 0, len(meshes)*(len(algs)+1))
	for _, mesh := range meshes {
		for _, alg := range algs {
			points = append(points, collectivePoint{mesh: mesh, alg: alg})
		}
		points = append(points, collectivePoint{mesh: mesh}) // baseline
	}
	rows, err := Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p collectivePoint) (CollectiveRow, error) {
			return runCollectivePoint(p, opts)
		})
	if err != nil {
		return nil, fmt.Errorf("collectives: %w", err)
	}
	return rows, nil
}

// runCollectivePoint executes one comparison cell.
func runCollectivePoint(p collectivePoint, opts Options) (CollectiveRow, error) {
	rounds := opts.rounds()
	cfg := noc.DefaultConfig(p.mesh, p.mesh)
	cfg.EnableINA = true
	nw, err := noc.Acquire(cfg)
	if err != nil {
		return CollectiveRow{}, err
	}
	defer nw.Release()
	if p.alg == 0 {
		return runCollectiveBaseline(nw, p.mesh, rounds)
	}
	ctl, err := collective.NewDriver(nw, collective.Config{
		Op:             collective.AllReduce,
		Algorithm:      p.alg,
		Rounds:         rounds,
		ComputeLatency: collectiveComputeLatency,
	})
	if err != nil {
		return CollectiveRow{}, err
	}
	cycles, err := workload.Run(nw, ctl, 50_000_000)
	if err != nil {
		return CollectiveRow{}, fmt.Errorf("allreduce %s %dx%d: %w", p.alg, p.mesh, p.mesh, err)
	}
	res := ctl.Result(cycles)
	if res.OracleErrors != 0 || res.BroadcastErrors != 0 {
		return CollectiveRow{}, fmt.Errorf("allreduce %s %dx%d: %d oracle / %d broadcast errors",
			p.alg, p.mesh, p.mesh, res.OracleErrors, res.BroadcastErrors)
	}
	return CollectiveRow{
		Mesh:          p.mesh,
		Algorithm:     p.alg.String(),
		RoundCycles:   res.RoundCycles.Mean(),
		PacketLatency: res.PacketLatency.Mean(),
		RootFlits:     res.RootFlits,
		Merges:        res.Merges,
		SelfInitiated: res.SelfInitiated,
		LinkFlits:     res.Activity.LinkFlits,
		NoCPJ:         nocPJ(res.Activity, res.Cycles),
	}, nil
}

// runCollectiveBaseline executes the repeated row-gather reference: per
// round, every row's partial sums are gathered to its own sink and the
// cross-row reduction is left to the buffer — the fabric's reach before
// the collective tree existed.
func runCollectiveBaseline(nw *noc.Network, mesh, rounds int) (CollectiveRow, error) {
	ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme:         traffic.CollectGather,
		Rounds:         rounds,
		ComputeLatency: collectiveComputeLatency,
	})
	if err != nil {
		return CollectiveRow{}, err
	}
	cycles, err := workload.Run(nw, ctl, 50_000_000)
	if err != nil {
		return CollectiveRow{}, fmt.Errorf("rowgather %dx%d: %w", mesh, mesh, err)
	}
	res := ctl.Result(cycles)
	if res.OracleErrors != 0 {
		return CollectiveRow{}, fmt.Errorf("rowgather %dx%d: %d oracle errors", mesh, mesh, res.OracleErrors)
	}
	return CollectiveRow{
		Mesh:          mesh,
		Algorithm:     CollectiveBaseline,
		RoundCycles:   res.RoundCycles.Mean(),
		PacketLatency: res.PacketLatency.Mean(),
		RootFlits:     res.SinkFlits,
		Merges:        res.Merges,
		SelfInitiated: res.SelfInitiated,
		LinkFlits:     res.Activity.LinkFlits,
		NoCPJ:         nocPJ(res.Activity, res.Cycles),
	}, nil
}

// nocPJ is the NoC dynamic energy of a run's activity under the default
// coefficients.
func nocPJ(a noc.Activity, cycles int64) float64 {
	return power.Compute(core.NoCEvents(a), power.DefaultCoefficients(), cycles, 1.0).NoCPJ
}

// RenderCollectives formats the comparison as an algorithm table per
// mesh.
func RenderCollectives(rows []CollectiveRow) string {
	var b strings.Builder
	b.WriteString("Extension: mesh-wide all-reduce — collective tree vs flat unicast vs INA-fused vs repeated row-gather\n")
	fmt.Fprintf(&b, "%7s %10s %12s %10s %10s %8s %8s %10s %12s\n",
		"mesh", "algorithm", "round", "pkt lat", "rootflits", "merges", "selfinit", "linkflits", "noc pJ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4dx%-2d %10s %12.1f %10.1f %10d %8d %8d %10d %12.0f\n",
			r.Mesh, r.Mesh, r.Algorithm, r.RoundCycles, r.PacketLatency,
			r.RootFlits, r.Merges, r.SelfInitiated, r.LinkFlits, r.NoCPJ)
	}
	return b.String()
}
