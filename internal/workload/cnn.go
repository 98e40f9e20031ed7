package workload

import (
	"fmt"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
)

// PipelineConfig compiles a CNN layer sequence into a phase-DAG job:
// every layer becomes one accumulation phase (its result-collection
// traffic under the chosen scheme), chained to its predecessor by a
// barrier or overlap edge.
type PipelineConfig struct {
	// Layers is the layer sequence in execution order (e.g.
	// cnn.AlexNetAllLayers()).
	Layers []cnn.LayerConfig
	// Scheme selects unicast, gather or INA collection for every layer.
	Scheme traffic.CollectScheme
	// Rounds bounds the simulated rounds per layer (0 = 1): a layer runs
	// the first Rounds of its rounds, or all of them when it has fewer.
	Rounds int
	// Overlap selects double-buffered pipelining: each layer starts as
	// soon as its predecessor finished injecting, so the predecessor's
	// tail traffic contends with the successor's head. False is the
	// strict barrier — a layer starts only when its predecessor fully
	// drained, the sequential composition the analytic whole-model
	// sum assumes.
	Overlap bool
}

func (c PipelineConfig) rounds() int {
	if c.Rounds <= 0 {
		return 1
	}
	return c.Rounds
}

// NewPipelineJob compiles the layer sequence into a Job on nw and returns
// it together with the per-layer drivers (whose Snapshot carries each
// layer's round latencies and oracle errors after the run). Each
// layer phase simulates min(Rounds, its full accumulation round count)
// rounds with a per-round compute latency of ⌈C·R·R/M⌉ + T_MAC — the
// input-channel-partitioned mapping the accumulation workload models
// (cnn.LayerConfig.AccumulationRounds / PartialMACsPerPE).
func NewPipelineJob(nw *noc.Network, name string, cfg PipelineConfig) (Job, []*traffic.AccumulationController, error) {
	if len(cfg.Layers) == 0 {
		return Job{}, nil, fmt.Errorf("workload: pipeline %q has no layers", name)
	}
	rows := nw.Config().Rows
	cols := nw.Config().Cols
	job := Job{Name: name, Phases: make([]Phase, 0, len(cfg.Layers))}
	drivers := make([]*traffic.AccumulationController, 0, len(cfg.Layers))
	for i, layer := range cfg.Layers {
		if err := layer.Validate(); err != nil {
			return Job{}, nil, fmt.Errorf("workload: pipeline %q: %w", name, err)
		}
		drv, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
			Scheme:         cfg.Scheme,
			Rounds:         int(min(int64(cfg.rounds()), layer.AccumulationRounds(rows))),
			ComputeLatency: layer.PartialMACsPerPE(cols) + cnn.TMAC,
		})
		if err != nil {
			return Job{}, nil, fmt.Errorf("workload: pipeline %q layer %s: %w", name, layer.Name, err)
		}
		ph := Phase{Name: layer.Name, Driver: drv}
		if i > 0 {
			ph.After = []Dep{{Phase: i - 1, Overlap: cfg.Overlap}}
		}
		job.Phases = append(job.Phases, ph)
		drivers = append(drivers, drv)
	}
	return job, drivers, nil
}

// NewInferenceBatch compiles n staggered copies of the same layer
// pipeline into independent jobs on nw — the batched-inference workload
// the CLIs, experiments and benchmarks all run. Job j is named
// "inference-j", arrives stagger·j cycles after the schedule starts, and
// returns its per-layer drivers alongside so callers can aggregate
// oracle errors and round latencies from their Snapshots.
func NewInferenceBatch(nw *noc.Network, n int, stagger int64, cfg PipelineConfig) ([]Job, [][]*traffic.AccumulationController, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("workload: batch size must be >= 1, got %d", n)
	}
	if stagger < 0 {
		return nil, nil, fmt.Errorf("workload: negative batch stagger %d", stagger)
	}
	jobs := make([]Job, n)
	drivers := make([][]*traffic.AccumulationController, n)
	for j := 0; j < n; j++ {
		job, drv, err := NewPipelineJob(nw, fmt.Sprintf("inference-%d", j), cfg)
		if err != nil {
			return nil, nil, err
		}
		job.Arrival = stagger * int64(j)
		jobs[j] = job
		drivers[j] = drv
	}
	return jobs, drivers, nil
}

// ModelLayers resolves a CNN model name to its complete layer sequence
// (convolution, pooling and fully-connected layers in execution order).
func ModelLayers(model string) ([]cnn.LayerConfig, error) {
	switch strings.ToLower(model) {
	case "alexnet":
		return cnn.AlexNetAllLayers(), nil
	case "vgg16", "vgg-16":
		return cnn.VGG16AllLayers(), nil
	default:
		return nil, fmt.Errorf("workload: unknown model %q (alexnet, vgg16)", model)
	}
}
