package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"gathernoc/internal/fault"
)

// configHashVersion prefixes every canonical hash. Bump it whenever the
// normalization rules, the serialized field set, or the meaning of any
// field changes — a version bump invalidates every cached result and
// checkpoint keyed by the old scheme, which is exactly what a semantic
// change requires.
const configHashVersion = "gathernoc/noc.Config/v3"

// hashExcludedFields names the Config fields the canonical hash ignores,
// with the invariance argument for each. Every field listed here must be
// result-invariant: two configs differing only in these fields produce
// bit-identical simulation results (schedules, counters, statistics), so
// hashing them would only fragment the result cache.
//
// The reflection-driven perturbation test (TestConfigHashCoversEveryField)
// asserts the complement: any field NOT listed here must change the hash
// when perturbed, so a newly added Config field cannot silently escape the
// cache key — it either perturbs the hash or is explicitly argued
// invariant by being added to this set.
var hashExcludedFields = map[string]string{
	// Engine backends: schedules are bit-identical at every shard count
	// (DESIGN.md §9).
	"Shards": "sharded and sequential engines are bit-identical",
	// Debug/observability: purely observational layers, no schedule effect.
	"DebugFlitPool": "ownership checking never alters a schedule",
	"Telemetry":     "the collector is observational (DESIGN.md §11)",
}

// normalizeForHash returns the canonical form of the configuration:
// defaults resolved to their effective values (so "" and "mesh", or η=0
// and η=Cols, hash identically), result-invariant fields cleared (see
// hashExcludedFields), and a disabled fault config folded to nil.
func (c Config) normalizeForHash() Config {
	n := c
	n.Topology = c.EffectiveTopology()
	n.Routing = c.EffectiveRouting()
	n.GatherCapacity = c.EffectiveGatherCapacity()
	n.Shards = 0
	n.DebugFlitPool = false
	n.Telemetry = nil
	if !n.Faults.Enabled() {
		// A nil config and a config with no fault source wire nothing —
		// both are bit-identical to a fault-free build.
		n.Faults = nil
	} else {
		f := *n.Faults
		if f.RetryTimeout == 0 {
			f.RetryTimeout = fault.DefaultRetryTimeout
		}
		if f.RetryCap == 0 {
			f.RetryCap = fault.DefaultRetryCap
		}
		if f.MaxRetries == 0 {
			f.MaxRetries = fault.DefaultMaxRetries
		}
		n.Faults = &f
	}
	return n
}

// Hash returns the versioned canonical content hash of the configuration:
// a stable hex digest over the normalized form, equal for semantically
// identical configs (defaults resolved, result-invariant fields ignored)
// and different for any field change that can alter a result. It is the
// network half of every content-addressed cache key and checkpoint
// identity.
func (c Config) Hash() string {
	// encoding/json marshals struct fields in declaration order with
	// shortest-round-trip floats, so the byte stream is deterministic for
	// a given normalized value.
	b, err := json.Marshal(c.normalizeForHash())
	if err != nil {
		// Config is plain data (ints, strings, bools, float64s); this
		// cannot fail for any constructible value.
		panic(fmt.Sprintf("noc: config hash marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(configHashVersion))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
