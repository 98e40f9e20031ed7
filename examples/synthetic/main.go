// Synthetic: drive the NoC with classic synthetic traffic patterns and
// print a latency-throughput curve — the standard way to characterize an
// interconnect before running application workloads on it.
//
//	go run ./examples/synthetic
package main

import (
	"fmt"
	"log"

	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
)

func main() {
	fmt.Println("8x8 mesh, uniform random traffic, 2-flit packets")
	fmt.Printf("%10s %12s %12s %12s\n", "rate", "avg lat", "p99 lat", "throughput")

	for _, rate := range []float64{0.005, 0.01, 0.02, 0.04, 0.06} {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EastSinks = false
		nw, err := noc.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
			Pattern:       traffic.UniformRandom{Nodes: nw.Topology().NumNodes()},
			InjectionRate: rate,
			PacketFlits:   2,
			Warmup:        1000,
			Measure:       4000,
			Seed:          42,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.Run(10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.3f %12.1f %12.0f %12.4f\n",
			rate, res.Latency.Mean(), res.Latency.Percentile(99), res.Throughput)
	}

	fmt.Println("\nhotspot traffic toward node 0 (the many-to-one pattern gather targets)")
	fmt.Printf("%10s %12s %12s\n", "rate", "avg lat", "p99 lat")
	for _, rate := range []float64{0.005, 0.01, 0.02} {
		cfg := noc.DefaultConfig(8, 8)
		cfg.EastSinks = false
		nw, err := noc.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		gen, err := traffic.NewGenerator(nw, traffic.GeneratorConfig{
			Pattern:       traffic.Hotspot{Nodes: nw.Topology().NumNodes(), Target: 0, Fraction: 0.3},
			InjectionRate: rate,
			PacketFlits:   2,
			Warmup:        1000,
			Measure:       4000,
			Seed:          42,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := gen.Run(10_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.3f %12.1f %12.0f\n",
			rate, res.Latency.Mean(), res.Latency.Percentile(99))
	}
}
