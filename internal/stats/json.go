package stats

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Sample's JSON form exists for the content-addressed result cache
// (experiments must round-trip a report byte-for-byte), which requires
// that decoding reproduces the encoder's state bit-for-bit. It is one flat
// array: the observation count, the sum's bits as an unsigned integer, then
// each distinct value and its count, values ascending (Counts), so
// [3,4616189618054758400,1,2,2.5,1] is 1, 1 and 2.5. Engine snapshots write
// the same fields in binary (flit.Encoder.Sample).

// MarshalJSON encodes the sample as its count, sum bits and (value, count)
// pairs. A NaN or infinite value has no JSON form and is an error.
func (s Sample) MarshalJSON() ([]byte, error) {
	values, counts := s.Counts()
	b := strconv.AppendInt(append(make([]byte, 0, 32+24*len(values)), '['), int64(s.n), 10)
	b = strconv.AppendUint(append(b, ','), math.Float64bits(s.sum), 10)
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: sample value %v has no JSON form", v)
		}
		// encoding/json's choice of notation, which strconv.ParseFloat
		// reads back exactly.
		format := byte('f')
		if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(append(b, ','), v, format, -1, 64)
		b = strconv.AppendUint(append(b, ','), counts[i], 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON replaces the sample with the one MarshalJSON encoded, or
// returns an error wrapping errBadSample and leaves the sample as it was:
// any bytes decode or are refused, counts that do not add up to the
// observation count included (Restore). JSON null reads as the empty
// sample. The array is split here, allocating nothing but the count
// map of a sample past inline distinct values: a nested json.Unmarshal
// would allocate a decoder and a growing slice per sample, most of a cache
// entry's decode.
func (s *Sample) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if string(data) == "null" {
		*s = Sample{}
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return fmt.Errorf("%w: not a JSON array: %.20q", errBadSample, data)
	}
	body := data[1 : len(data)-1]
	items := bytes.Count(body, []byte{','}) + 1
	if items < 2 || items%2 != 0 {
		return fmt.Errorf("%w: %d array elements, want the count, the sum and pairs", errBadSample, items)
	}
	item := func() []byte {
		var it []byte
		it, body, _ = bytes.Cut(body, []byte{','})
		return bytes.TrimSpace(it)
	}
	n, err := strconv.ParseUint(string(item()), 10, 64)
	if err != nil || n > math.MaxInt {
		return fmt.Errorf("%w: observation count", errBadSample)
	}
	sum, err := strconv.ParseUint(string(item()), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: sum bits: %w", errBadSample, err)
	}
	return s.Restore(int(n), math.Float64frombits(sum), (items-2)/2, func() (float64, uint64, error) {
		v, err := strconv.ParseFloat(string(item()), 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("value %v has no JSON form", v)
		}
		if err != nil {
			return 0, 0, err
		}
		c, err := strconv.ParseUint(string(item()), 10, 64)
		return v, c, err
	})
}
