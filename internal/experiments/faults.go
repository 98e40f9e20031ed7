package experiments

import (
	"context"
	"fmt"
	"strings"

	"gathernoc/internal/fault"
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// FaultSweepRow is one point of the degradation-under-loss sweep: a
// collection scheme's accumulation round latency at one transient flit
// drop rate, with the recovery accounting alongside.
type FaultSweepRow struct {
	Scheme string
	// DropRate is the per-link-traversal flit drop probability (the
	// corruption rate rides along at a quarter of it).
	DropRate float64
	// RoundCycles is the mean accumulation round latency.
	RoundCycles float64
	// Slowdown is RoundCycles relative to the scheme's fault-free point —
	// the price of recovery, since delivery stays at 100% throughout.
	Slowdown float64
	// Drops and Corrupts count the flits the injector destroyed;
	// Retransmits the end-to-end resends that recovered them.
	Drops       uint64
	Corrupts    uint64
	Retransmits uint64
	// SelfInitiated counts δ-timeout fallback packets — under loss the
	// collectives degrade toward the unicast path rather than waiting on
	// operands that died.
	SelfInitiated uint64
	// OracleErrors must be zero at every point: the retransmission layer
	// trades latency for loss, never correctness.
	OracleErrors int
}

// FaultSweep measures graceful degradation on the 8x8 fabric: each
// collection scheme's round latency as the transient drop rate rises.
// Every point must complete oracle-exact — lost operands are recovered by
// the NIC retransmission layer, and gather/INA collectives fall back to
// the δ-timeout unicast path when loss starves their merge windows.
func FaultSweep(opts Options) ([]FaultSweepRow, error) {
	// rates[0] is the fault-free point each scheme's slowdown is relative to.
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05}
	type faultPoint struct {
		scheme traffic.CollectScheme
		rate   float64
	}
	var points []faultPoint
	for _, scheme := range []traffic.CollectScheme{traffic.CollectUnicast, traffic.CollectGather, traffic.CollectINA} {
		for _, rate := range rates {
			points = append(points, faultPoint{scheme, rate})
		}
	}
	rows, err := Sweep(opts.ctx(), opts.Workers, points,
		func(_ context.Context, _ int, p faultPoint) (FaultSweepRow, error) {
			row, err := runFaultPoint(p.scheme, p.rate, opts)
			if err != nil {
				err = fmt.Errorf("fault sweep %s @ %.3f: %w", p.scheme, p.rate, err)
			}
			return row, err
		})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if base := rows[i-i%len(rates)].RoundCycles; base > 0 {
			rows[i].Slowdown = rows[i].RoundCycles / base
		}
	}
	return rows, nil
}

func runFaultPoint(scheme traffic.CollectScheme, rate float64, opts Options) (FaultSweepRow, error) {
	cfg := noc.DefaultConfig(8, 8)
	cfg.EnableINA = scheme == traffic.CollectINA
	if rate > 0 {
		cfg.Faults = &fault.Config{Seed: 1, DropRate: rate, CorruptRate: rate / 4}
	}
	nw, err := noc.New(cfg)
	if err != nil {
		return FaultSweepRow{}, err
	}
	defer nw.Close()
	// The watchdog bounds a wedged point to one no-progress window instead
	// of the whole cycle budget.
	nw.Engine().SetWatchdog(nw.Watchdog(0))
	ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
		Scheme: scheme, Rounds: opts.rounds(), ComputeLatency: 20,
	})
	if err != nil {
		return FaultSweepRow{}, err
	}
	cycles, err := workload.Run(nw, ctl, 20_000_000)
	if err != nil {
		return FaultSweepRow{}, err
	}
	res := ctl.Result(cycles)
	row := FaultSweepRow{
		Scheme:        scheme.String(),
		DropRate:      rate,
		RoundCycles:   res.RoundCycles.Mean(),
		SelfInitiated: res.SelfInitiated,
		OracleErrors:  res.OracleErrors,
	}
	if inj := nw.FaultInjector(); inj != nil {
		row.Drops = inj.Drops()
		row.Corrupts = inj.Corrupts()
	}
	row.Retransmits = nw.NICTotals().Retransmits
	if row.OracleErrors != 0 {
		return FaultSweepRow{}, fmt.Errorf("%d oracle errors — recovery lost payloads", row.OracleErrors)
	}
	return row, nil
}

// RenderFaultSweep formats the degradation sweep.
func RenderFaultSweep(rows []FaultSweepRow) string {
	var b strings.Builder
	b.WriteString("Extension: reliability under transient faults (8x8 accumulation, oracle-exact at every point)\n")
	fmt.Fprintf(&b, "%8s %9s %10s %9s %7s %9s %12s %9s\n",
		"scheme", "droprate", "round cyc", "slowdown", "drops", "corrupts", "retransmits", "fallback")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %9.3f %10.1f %8.2fx %7d %9d %12d %9d\n",
			r.Scheme, r.DropRate, r.RoundCycles, r.Slowdown,
			r.Drops, r.Corrupts, r.Retransmits, r.SelfInitiated)
	}
	return b.String()
}
