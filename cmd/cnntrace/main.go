// Command cnntrace generates the per-layer result-collection traffic
// traces the paper derives from AlexNet and VGG-16 (Table III), in the
// repository's JSON-lines trace format, for replay with nocsim -replay.
//
// Usage:
//
//	cnntrace -model alexnet -layer Conv3 -rows 8 -cols 8 -mode gather -o conv3.trace
//	cnntrace -model vgg16 -layer Conv1 -mode ru -rounds 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gathernoc/internal/cnn"
	"gathernoc/internal/traffic"
)

// Named input errors, so callers and tests can match them.
var (
	errMesh = errors.New("-rows and -cols must be >= 1")
	errTMAC = errors.New("-tmac must be >= 0")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cnntrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cnntrace", flag.ContinueOnError)
	var (
		model  = fs.String("model", "alexnet", "model (alexnet, vgg16, vgg16all)")
		name   = fs.String("layer", "Conv1", "layer name from Table III")
		rows   = fs.Int("rows", 8, "mesh rows")
		cols   = fs.Int("cols", 8, "mesh columns")
		mode   = fs.String("mode", "gather", "collection mode (gather, ru)")
		rounds = fs.Int("rounds", 1, "rounds to emit")
		tmac   = fs.Int("tmac", cnn.TMAC, "MAC latency in cycles")
		out    = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *rows < 1 || *cols < 1:
		return errMesh
	case *tmac < 0:
		return errTMAC
	}

	var layers []cnn.LayerConfig
	switch strings.ToLower(*model) {
	case "alexnet":
		layers = cnn.AlexNetConvLayers()
	case "vgg16":
		layers = cnn.VGG16SelectedConvLayers()
	case "vgg16all":
		layers = cnn.VGG16AllConvLayers()
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	layer, ok := cnn.LayerByName(layers, *name)
	if !ok {
		var names []string
		for _, l := range layers {
			names = append(names, l.Name)
		}
		return fmt.Errorf("unknown layer %q (have %s)", *name, strings.Join(names, ", "))
	}

	gather := false
	switch strings.ToLower(*mode) {
	case "gather":
		gather = true
	case "ru", "unicast":
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	if *rounds < 1 {
		return fmt.Errorf("rounds must be >= 1")
	}
	var events []traffic.Event
	roundLen := int64(layer.MACsPerPE() + *tmac)
	sinkBase := *rows * *cols
	for r := 0; r < *rounds; r++ {
		start := int64(r)*roundLen + roundLen
		events = append(events, traffic.GenerateLayerTrace(layer, *rows, *cols, gather, start, sinkBase)...)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := traffic.Write(w, events); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d events for %s (%d round(s), %s) to %s\n",
			len(events), layer, *rounds, *mode, *out)
	}
	return nil
}
