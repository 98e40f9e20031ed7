package workload

import (
	"testing"

	"gathernoc/internal/cnn"
	"gathernoc/internal/collective"
	"gathernoc/internal/noc"
	"gathernoc/internal/topology"
	"gathernoc/internal/traffic"
)

// TestCollectiveJobPhases runs a two-phase collective job — an all-reduce
// followed by a broadcast, the gradient-sync/parameter-push pair — under
// the scheduler and checks both phases' verification accounts.
func TestCollectiveJobPhases(t *testing.T) {
	nw, err := noc.New(noc.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	job, drivers, err := NewCollectiveJob(nw, "sync", []collective.Config{
		{Op: collective.AllReduce, Algorithm: collective.AlgTree, Rounds: 2, ComputeLatency: 4},
		{Op: collective.Broadcast, Algorithm: collective.AlgTree, Rounds: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Phases) != 2 || job.Phases[0].Name != "allreduce-tree-0" || job.Phases[1].Name != "bcast-tree-1" {
		t.Fatalf("phases = %+v", job.Phases)
	}
	s, err := New(nw, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range drivers {
		snap := d.Snapshot()
		if snap.OracleErrors != 0 || snap.BroadcastErrors != 0 {
			t.Errorf("phase %d: %d oracle / %d broadcast errors", i, snap.OracleErrors, snap.BroadcastErrors)
		}
	}
	if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
		t.Errorf("orphans: %d packets, %d payloads", res.OrphanPackets, res.OrphanPayloads)
	}
}

// runBeside runs two gather- or INA-scheme inference jobs (the first three
// AlexNet convolution layers at four rounds each) on an 8x8 fabric, alone
// when coll is nil and beside one collective job otherwise. It checks every
// oracle and the orphan counts and returns what the collective must not
// disturb: the packets ejected for inference job 0 and the fabric-wide
// self-initiated gather and accumulate packets.
func runBeside(t *testing.T, scheme traffic.CollectScheme, coll *collective.Config) (packets, selfGathers, selfReduces uint64) {
	t.Helper()
	cfg := noc.DefaultConfig(8, 8)
	cfg.EnableINA = true
	nw, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	jobs, accDrivers, err := NewInferenceBatch(nw, 2, 0, PipelineConfig{
		Layers: cnn.AlexNetConvLayers()[:3],
		Scheme: scheme,
		Rounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var collDrivers []*collective.Driver
	if coll != nil {
		var job Job
		if job, collDrivers, err = NewCollectiveJob(nw, "sync", []collective.Config{*coll}, false); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	s, err := New(nw, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for j, layers := range accDrivers {
		for i, d := range layers {
			if snap := d.Snapshot(); snap.OracleErrors != 0 {
				t.Errorf("inference job %d layer %d: %d oracle errors", j, i, snap.OracleErrors)
			}
		}
	}
	for _, d := range collDrivers {
		if snap := d.Snapshot(); snap.OracleErrors != 0 || snap.BroadcastErrors != 0 {
			t.Errorf("collective job: %d oracle / %d broadcast errors", snap.OracleErrors, snap.BroadcastErrors)
		}
	}
	if res.OrphanPackets != 0 || res.OrphanPayloads != 0 {
		t.Errorf("orphans: %d packets, %d payloads", res.OrphanPackets, res.OrphanPayloads)
	}
	for id := 0; id < nw.Topology().NumNodes(); id++ {
		n := nw.NIC(topology.NodeID(id))
		selfGathers += n.SelfInitiatedGathers.Value()
		selfReduces += n.SelfInitiatedReduces.Value()
	}
	return res.Jobs[0].PacketsEjected, selfGathers, selfReduces
}

// TestCollectiveAlongsideAccumulation shares the fabric between row
// accumulation (inference) jobs and a collective job: the scheduler's tag
// routing must keep every oracle exact, and the collective must not change
// how the inference jobs collect. δ is NIC state both drivers arm, and the
// collective's column stage scales it by row where the accumulation scales
// it by column; a δ left behind by one driver makes the other's east-column
// PEs time out early and launch packets of their own, so an inference job
// must eject the same packets and fire the same self-initiated fallbacks
// beside the collective as alone (DESIGN.md §8).
func TestCollectiveAlongsideAccumulation(t *testing.T) {
	for _, tc := range []struct {
		scheme traffic.CollectScheme
		alg    collective.Algorithm
	}{
		{traffic.CollectGather, collective.AlgTree},
		{traffic.CollectINA, collective.AlgFused},
	} {
		alonePkts, aloneG, aloneR := runBeside(t, tc.scheme, nil)
		if alonePkts != 96 || aloneG != 0 || aloneR != 0 {
			t.Errorf("%s alone: %d packets, %d/%d self-initiated; want 96, 0/0", tc.scheme, alonePkts, aloneG, aloneR)
		}
		for _, op := range []collective.Op{collective.Reduce, collective.AllReduce} {
			coll := collective.Config{Op: op, Algorithm: tc.alg, Rounds: 2, ComputeLatency: 4}
			pkts, g, r := runBeside(t, tc.scheme, &coll)
			if pkts != alonePkts || g != aloneG || r != aloneR {
				t.Errorf("%s beside %s/%s: %d packets, %d/%d self-initiated gathers/reduces; alone %d, %d/%d",
					tc.scheme, op, tc.alg, pkts, g, r, alonePkts, aloneG, aloneR)
			}
		}
	}
}

// TestCollectiveJobValidation covers the constructor's rejection paths.
func TestCollectiveJobValidation(t *testing.T) {
	nw := testNetwork(t, 4, 4)
	defer nw.Close()
	if _, _, err := NewCollectiveJob(nw, "empty", nil, false); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, _, err := NewCollectiveJob(nw, "bad", []collective.Config{{}}, false); err == nil {
		t.Error("invalid phase config accepted")
	}
}
