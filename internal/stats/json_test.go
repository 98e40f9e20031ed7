package stats

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// FuzzSampleUnmarshalJSON: any bytes decode to a sample or are refused
// with an error wrapping errBadSample, leaving the sample as it was. A
// decoded sample is one Restore accepts, and it encodes back to a form
// that decodes to it again.
func FuzzSampleUnmarshalJSON(f *testing.F) {
	for _, seed := range []string{
		`[0,0]`, ` [ 0 , 0 ] `, `null`, `[3,4616189618054758400,1,2,2.5,1]`,
		`[2,0,-0,1,0,1]`, `[1,0,9007199254740994,1]`, `[2,0,1e-7,1,1e300,1]`,
		// Counts that do not add up, overflow, or repeat a value.
		`[3,0,1,1,2,1]`, `[1,0,1,1,2,1]`, `[2,0,1,18446744073709551615,2,3]`,
		`[2,0,1,1,1,1]`, `[2,0,2,1,1,1]`, `[1,0,1,0]`,
		`[1,"a"]`, `[[1,2]]`, `[{"a":1,"b":2}]`, `["1,2"]`, `{}`, `7`, `true`, `[]`,
		`[1,0,1e400,1]`, `[1,0,NaN,1]`, `[1,0,1]`, `[-1,0]`, `[0,-5]`, `[0,5]`,
		`[1,9221120237041090560,1,1]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var got Sample
		got.Observe(42)
		prior := got
		err := got.UnmarshalJSON(in)
		if err != nil {
			if !errors.Is(err, errBadSample) {
				t.Fatalf("%q: error %v does not wrap errBadSample", in, err)
			}
			if !reflect.DeepEqual(got, prior) {
				t.Fatalf("%q: a refused decode changed the sample", in)
			}
			return
		}
		_, counts := got.Counts()
		var total uint64
		for _, c := range counts {
			total += c
		}
		if total != uint64(got.N()) {
			t.Fatalf("%q: counts add up to %d of %d", in, total, got.N())
		}
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%q: re-encoding: %v", in, err)
		}
		// The encoding is canonical, so equal bytes are equal samples,
		// NaN sums included.
		var again Sample
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("%q: re-encoded as %s, which does not decode: %v", in, raw, err)
		}
		if reraw, _ := json.Marshal(again); string(reraw) != string(raw) {
			t.Fatalf("%q: re-encoded as %s, which decodes to one encoding as %s", in, raw, reraw)
		}
	})
}

// TestSampleJSONForm pins the encoding: count, sum bits, then each
// distinct value ascending with its count.
func TestSampleJSONForm(t *testing.T) {
	var s Sample
	for _, v := range []float64{2.5, 1, 1} {
		s.Observe(v)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := "[3," + strconv.FormatUint(math.Float64bits(4.5), 10) + ",1,2,2.5,1]"
	if string(raw) != want {
		t.Fatalf("encoded %s, want %s", raw, want)
	}
	var empty Sample
	if raw, _ := json.Marshal(empty); string(raw) != "[0,0]" {
		t.Fatalf("empty sample encoded %s", raw)
	}
	var back Sample
	back.Observe(1)
	if err := json.Unmarshal([]byte("[0,0]"), &back); err != nil || !reflect.DeepEqual(back, Sample{}) {
		t.Fatalf("[0,0] decoded to %+v (%v), want the zero sample", back, err)
	}
	nan := Sample{}
	nan.Observe(math.NaN())
	if _, err := json.Marshal(nan); err == nil {
		t.Fatal("a NaN observation encoded")
	}
}

// TestSampleJSONRoundTrip: a sample decodes to the state it was encoded
// from.
func TestSampleJSONRoundTrip(t *testing.T) {
	var s Sample
	for i := 0; i < 300; i++ {
		s.Observe(float64(i%70)/3 - 5)
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
