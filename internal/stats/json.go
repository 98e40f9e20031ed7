package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Sample's JSON form exists for the content-addressed result cache
// (experiments must round-trip a report byte-for-byte), which requires
// that decoding reproduces the encoder's state bit-for-bit, so it holds
// the raw observations in insertion order — re-observing them rebuilds the
// identical chunk layout, sum (same float addition order) and order
// statistics — rather than any lossy summary. Engine snapshots do the same
// in binary (flit.Encoder.Sample).

// MarshalJSON encodes the sample as its observations in insertion order.
func (s Sample) MarshalJSON() ([]byte, error) {
	obs := make([]float64, 0, s.n)
	for _, chunk := range s.chunks {
		obs = append(obs, chunk...)
	}
	return json.Marshal(obs)
}

// UnmarshalJSON resets the sample and replays the encoded observations,
// reproducing the encoder's state exactly. data is one valid JSON value,
// as encoding/json guarantees before it calls an Unmarshaler, so the
// array is split here: a nested json.Unmarshal would allocate a decoder
// and a growing slice per sample, most of a cache entry's decode. Each
// element goes through strconv.ParseFloat as encoding/json's float64
// decoding does, and a null element reads 0 as it does there. On error
// the sample is left as it was.
func (s *Sample) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if string(data) == "null" {
		*s = Sample{}
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return fmt.Errorf("stats: sample is not a JSON array: %.20q", data)
	}
	var next Sample
	for body := bytes.TrimSpace(data[1 : len(data)-1]); len(body) > 0; {
		item, rest, _ := bytes.Cut(body, []byte{','})
		item, body = bytes.TrimSpace(item), rest
		var v float64
		if string(item) != "null" {
			var err error
			if v, err = strconv.ParseFloat(string(item), 64); err != nil {
				return fmt.Errorf("stats: sample observation: %w", err)
			}
		}
		next.Observe(v)
	}
	*s = next
	return nil
}
