package core

import (
	"encoding/json"
	"fmt"

	"gathernoc/internal/cnn"
	"gathernoc/internal/power"
	"gathernoc/internal/systolic"
)

// ComparisonKeyVersion tags comparison cache keys. Bump it whenever the
// meaning of a comparison changes — a simulator behaviour fix, a new
// Comparison field, a changed extrapolation rule — so stale cached
// results are invalidated by construction instead of being served.
const ComparisonKeyVersion = "gathernoc/core.Comparison/v1"

// comparisonKey is the canonical content of a CompareLayer invocation:
// everything that determines its result and nothing that does not. The
// network configuration enters through its canonical hash (noc.Config.Hash
// normalizes defaults and excludes result-invariant execution knobs), and
// the systolic configurations enter fully materialized — Options carries
// mutation closures, which cannot be hashed, so the key captures what they
// produced rather than what they are. Coefficients is the energy model
// every run is priced with, so an edit to power.DefaultCoefficients
// invalidates cached entries.
type comparisonKey struct {
	Version      string
	Rows, Cols   int
	NetworkHash  string
	RU, Gather   systolic.Config
	MaxCycles    int64
	Coefficients power.Coefficients
}

// ComparisonKey returns the canonical key of the CompareLayer call with
// the same arguments: two calls get equal keys exactly when they would
// run identical simulations. It hashes the configurations RunLayer would
// simulate (Options.networkConfig, Options.systolicConfig), so closures in
// Options are keyed by effect.
// Mutators must be deterministic functions of their input config — a
// mutator that reads ambient state would alias distinct runs; none in
// this repository does.
func ComparisonKey(rows, cols int, layer cnn.LayerConfig, opts Options) (string, error) {
	k := comparisonKey{
		Version:      ComparisonKeyVersion,
		Rows:         rows,
		Cols:         cols,
		NetworkHash:  opts.networkConfig(rows, cols).Hash(),
		RU:           opts.systolicConfig(layer, systolic.RepetitiveUnicast),
		Gather:       opts.systolicConfig(layer, systolic.GatherMode),
		MaxCycles:    maxCycles,
		Coefficients: power.DefaultCoefficients(),
	}
	data, err := json.Marshal(k)
	if err != nil {
		return "", fmt.Errorf("core: comparison key: %w", err)
	}
	return string(data), nil
}
