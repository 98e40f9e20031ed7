package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSampleUnmarshalJSON checks Sample's hand-split decoding against
// encoding/json's own decoding of the same bytes into []float64: for any
// valid JSON value, both succeed or both fail; on success the sample
// equals the one built by observing the reference slice, and on failure
// the sample keeps its previous state.
func FuzzSampleUnmarshalJSON(f *testing.F) {
	for _, seed := range []string{
		`[]`, ` [ ] `, `null`, `[1,2.5,-0,1e-7,123456789.125]`, `[ 1 , null , 3 ]`,
		`[1,"a"]`, `[[1,2]]`, `[{"a":1,"b":2}]`, `["1,2"]`, `{}`, `7`, `true`,
		`[1e400]`, `[-1e-400]`, `[0.1,0.2,0.30000000000000004]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if !json.Valid(in) {
			return
		}
		var obs []float64
		refErr := json.Unmarshal(in, &obs)
		var prior, got Sample
		prior.Observe(42)
		got.Observe(42)
		err := json.Unmarshal(in, &got)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: error %v, encoding/json's %v", in, err, refErr)
		}
		want := prior
		if refErr == nil {
			want = Sample{}
			for _, v := range obs {
				want.Observe(v)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %v, want %v", in, got.chunks, want.chunks)
		}
	})
}

// TestSampleJSONRoundTrip: a sample spanning several chunks decodes to
// the state it was encoded from.
func TestSampleJSONRoundTrip(t *testing.T) {
	var s Sample
	for i := 0; i < 3*sampleChunkMin; i++ {
		s.Observe(float64(i)/3 - 50)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Sample
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("round trip changed the sample")
	}
}
