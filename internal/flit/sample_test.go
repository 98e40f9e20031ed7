package flit

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"gathernoc/internal/stats"
)

// TestSampleCodecExactness: a sample written by Encoder.Sample and read
// back by Decoder.Sample reports every statistic bit for bit as the one
// written, over whole numbers, negatives, fractions, both zeros and values
// at and past 2^53, and encodes to the same bytes again.
func TestSampleCodecExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(60)) },
		func() float64 { return -float64(rng.Intn(500)) },
		func() float64 { return float64(rng.Intn(30)) / 7 },
		func() float64 { return math.Copysign(0, -1) },
		func() float64 { return 0 },
		func() float64 { return 1<<53 + float64(2*rng.Intn(5)) },
		func() float64 { return math.Ldexp(float64(rng.Intn(9)+1), 60+rng.Intn(900)) },
	}
	for _, n := range []int{0, 1, 3, 100, 5000} {
		var s stats.Sample
		for i := 0; i < n; i++ {
			s.Observe(draws[rng.Intn(len(draws))]())
		}
		var e Encoder
		e.ResetAbsolute(nil)
		e.Sample(&s)
		encoded := bytes.Clone(e.Bytes())
		var got stats.Sample
		got.Observe(42)
		var d Decoder
		d.Reset(encoded, 1, 1)
		d.Sample(&got)
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("n=%d: decode: %v, %d bytes left", n, d.Err(), d.Remaining())
		}
		same := func(stat string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("n=%d: %s decoded %v, written %v", n, stat, a, b)
			}
		}
		if got.N() != s.N() {
			t.Fatalf("n=%d: decoded N %d", n, got.N())
		}
		same("Sum", got.Sum(), s.Sum())
		same("Mean", got.Mean(), s.Mean())
		same("Min", got.Min(), s.Min())
		same("Max", got.Max(), s.Max())
		for _, p := range []float64{0, 1, 50, 99, 100} {
			same("Percentile", got.Percentile(p), s.Percentile(p))
		}
		if n > 0 && !math.IsNaN(got.Percentile(math.NaN())) {
			t.Errorf("n=%d: decoded Percentile(NaN) is not NaN", n)
		}
		e.ResetAbsolute(nil)
		e.Sample(&got)
		if !bytes.Equal(e.Bytes(), encoded) {
			t.Errorf("n=%d: the decoded sample encodes to other bytes", n)
		}
	}
}

// TestSampleEncodingBytes pins Encoder.Sample's bytes on either side of the
// boundary past which a sample moves its counts from the sample itself to
// a map (stats.Sample), NaNs of either sign included: they are the bytes a
// sample that counts every value in a map writes, so snapshots and cached
// results read alike whichever way a sample counts. No sample mixes NaNs:
// which one a sum of two carries is the hardware's choice, not the
// encoding's.
func TestSampleEncodingBytes(t *testing.T) {
	nz, big := math.Copysign(0, -1), float64(1<<53+2)
	nan, negnan := math.NaN(), math.Copysign(math.NaN(), -1)
	for _, c := range []struct {
		obs  []float64
		want string
	}{
		{[]float64{2, 0, nz, 2, 0}, "05c0200380010100024002"},
		{[]float64{2, 0, nz, 2, 0, big}, "06c380818080808080030480010100024002c3808180808080800101"},
		{[]float64{2, 0, nz, 2, 0, big, -7.5, big}, "08c3a00105c03d0180010100024002c3808180808080800102"},
		{[]float64{nan, 1, 1}, "03fff08380808080800102bfe00302fff08380808080800101"},
		{[]float64{negnan, 3}, "02fff18380808080800102fff18380808080800101c01001"},
		{[]float64{2, 0, nz, 2, 0, big, -7.5, big, negnan},
			"09fff18380808080800106fff18380808080800101c03d0180010100024002c3808180808080800102"},
	} {
		var s stats.Sample
		for _, v := range c.obs {
			s.Observe(v)
		}
		var e Encoder
		e.ResetAbsolute(nil)
		e.Sample(&s)
		if got := hex.EncodeToString(e.Bytes()); got != c.want {
			t.Errorf("%v: encoded %s, want %s", c.obs, got, c.want)
		}
	}
}

// FuzzDecoderSample: any bytes decode to a sample or fail the decoder,
// leaving the sample as it was; a decoded sample encodes to bytes that
// decode to it again (the encoding is canonical, so equal bytes are equal
// samples, NaN sums included).
func FuzzDecoderSample(f *testing.F) {
	var e Encoder
	for _, obs := range [][]float64{nil, {3}, {1, 1, 2.5}, {-0.0, 0, 1 << 60, -7}} {
		var s stats.Sample
		for _, v := range obs {
			s.Observe(v)
		}
		e.ResetAbsolute(nil)
		e.Sample(&s)
		f.Add(bytes.Clone(e.Bytes()))
	}
	// Counts short of, past and overflowing the observation count, and a
	// sum of no observations.
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x30, 0})
	f.Add([]byte{3, 0, 1, 0, 1})
	f.Add([]byte{1, 0, 2, 0, 1, 1, 1})
	f.Add([]byte{2, 0, 2, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		var s stats.Sample
		s.Observe(42)
		var d Decoder
		d.Reset(in, 1, 1)
		d.Sample(&s)
		if d.Err() != nil {
			if s.N() != 1 || s.Max() != 42 {
				t.Fatalf("%x: a failed decode changed the sample", in)
			}
			return
		}
		var re Encoder
		re.ResetAbsolute(nil)
		re.Sample(&s)
		var again stats.Sample
		d.Reset(re.Bytes(), 1, 1)
		d.Sample(&again)
		first := bytes.Clone(re.Bytes())
		re.ResetAbsolute(nil)
		re.Sample(&again)
		if d.Err() != nil || !bytes.Equal(re.Bytes(), first) {
			t.Fatalf("%x: decoded sample re-encodes to %x, which decodes to one encoding to %x (%v)", in, first, re.Bytes(), d.Err())
		}
	})
}
