package telemetry

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceMetricsCSV is the encoding/csv writer WriteMetricsCSV replaced,
// kept as the definition of the format: the append-based writer must emit
// these bytes.
func referenceMetricsCSV(r *Report, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(MetricsCSVHeader); err != nil {
		return err
	}
	rec := make([]string, len(MetricsCSVHeader))
	for e := range r.EpochIndex {
		span := r.epochSpan(e)
		for _, ss := range r.Sources {
			for fi, f := range ss.Fields {
				v := ss.Values[e][fi]
				rec[0] = strconv.FormatInt(r.EpochIndex[e], 10)
				rec[1] = strconv.FormatInt(r.EpochEnd[e], 10)
				rec[2] = ss.Meta.Kind
				rec[3] = strconv.Itoa(ss.Meta.ID)
				rec[4] = ss.Meta.Name
				rec[5] = strconv.Itoa(ss.Meta.Row)
				rec[6] = strconv.Itoa(ss.Meta.Col)
				rec[7] = f.Name
				rec[8] = strconv.FormatInt(v, 10)
				rec[9] = ""
				if !f.Gauge && span > 0 {
					rec[9] = strconv.FormatFloat(float64(v)/float64(span), 'f', 4, 64)
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// awkwardNames are source and field names that exercise every branch of
// encoding/csv's quoting rule, and its near misses.
var awkwardNames = []string{
	"r3", "", "a,b", `say "hi"`, `"`, " leading space", "\tleading tab", "trailing space ",
	"line\nbreak", "cr\rhere", "crlf\r\nboth", `\.`, `\.x`, `x\.`, "\u00a0nbsp first", "\u2003em space", "\u0085next line", "\v", "é,ü", "\xff\xfe", "\x85raw byte",
}

// awkwardReport builds a report by hand: one source per awkward name (used
// as kind, name and field name in turn), negative and zero deltas, gauges,
// and an epoch axis that is either a run from cycle 0 with a partial last
// epoch or the tail of a wrapped window.
func awkwardReport(epochs int, wrapped bool) *Report {
	r := &Report{Epoch: 256}
	first := int64(0)
	if wrapped {
		first = 1000 // MaxEpochs < epochs run: the window starts mid-run
	}
	for e := 0; e < epochs; e++ {
		idx := first + int64(e)
		end := (idx+1)*r.Epoch - 1
		if e == epochs-1 {
			end -= 100 // partial last epoch
		}
		r.EpochIndex = append(r.EpochIndex, idx)
		r.EpochEnd = append(r.EpochEnd, end)
	}
	for i, name := range awkwardNames {
		ss := SourceSeries{
			Meta: SourceMeta{Kind: awkwardNames[(i+1)%len(awkwardNames)], ID: i - 2, Name: name, Row: i%3 - 1, Col: -i},
			Fields: []Field{
				{Name: "writes"},
				{Name: awkwardNames[(i+2)%len(awkwardNames)], Gauge: true},
				{Name: awkwardNames[(i+3)%len(awkwardNames)]},
			},
		}
		for e := 0; e < epochs; e++ {
			ss.Values = append(ss.Values, []int64{
				int64(e*i) % 7 * 1000003, // zero on many rows
				int64(i) - 5,             // gauge, sometimes negative
				-int64(e+1) * int64(i%4), // negative and zero deltas
			})
		}
		r.Sources = append(r.Sources, ss)
	}
	return r
}

func TestWriteMetricsCSVMatchesEncodingCSV(t *testing.T) {
	big := awkwardReport(3, false)
	// Enough rows to cross the flush threshold several times.
	for len(big.Sources) < 4000 {
		big.Sources = append(big.Sources, big.Sources[:len(awkwardNames)]...)
	}
	noSpan := awkwardReport(2, false)
	noSpan.EpochEnd[1] = noSpan.EpochEnd[0] // a zero-cycle epoch leaves per_cycle empty
	cases := []struct {
		name string
		rep  *Report
	}{
		{"partial last epoch", awkwardReport(4, false)},
		{"wrapped window", awkwardReport(4, true)},
		{"one epoch", awkwardReport(1, false)},
		{"zero-span epoch", noSpan},
		{"zero epochs", awkwardReport(0, false)},
		{"zero sources", &Report{Epoch: 4, EpochIndex: []int64{0, 1}, EpochEnd: []int64{3, 7}}},
		{"empty report", &Report{}},
		{"many flushes", big},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want, got bytes.Buffer
			if err := referenceMetricsCSV(tc.rep, &want); err != nil {
				t.Fatal(err)
			}
			if err := tc.rep.WriteMetricsCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteMetricsCSV differs from encoding/csv at byte %d of %d (reference %d)",
					firstDiff(got.Bytes(), want.Bytes()), got.Len(), want.Len())
			}
			// What was written reads back: same names, same values.
			pts, err := ReadMetricsCSV(&got)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for e := range tc.rep.EpochIndex {
				for _, ss := range tc.rep.Sources {
					for fi, f := range ss.Fields {
						p := pts[n]
						n++
						// encoding/csv's reader folds "\r\n" inside a quoted field to "\n".
						if p.Kind != unCRLF(ss.Meta.Kind) || p.Name != unCRLF(ss.Meta.Name) || p.Field != unCRLF(f.Name) ||
							p.ID != ss.Meta.ID || p.Value != ss.Values[e][fi] || p.Epoch != tc.rep.EpochIndex[e] {
							t.Fatalf("point %d = %+v, want source %+v field %q value %d", n-1, p, ss.Meta, f.Name, ss.Values[e][fi])
						}
					}
				}
			}
			if n != len(pts) {
				t.Errorf("read %d points back, wrote %d", len(pts), n)
			}
		})
	}
}

func unCRLF(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") }

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// failingWriter accepts writes until failAt bytes have gone through, then
// fails with its own error.
type failingWriter struct {
	failAt, n int
	writes    int
	err       error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.n+len(p) > w.failAt {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

func TestWriteMetricsCSVReturnsTheWritersError(t *testing.T) {
	rep := awkwardReport(3, false)
	for len(rep.Sources) < 4000 {
		rep.Sources = append(rep.Sources, rep.Sources[:len(awkwardNames)]...)
	}
	var whole bytes.Buffer
	if err := rep.WriteMetricsCSV(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.Len() < 4*csvFlushBytes {
		t.Fatalf("report renders to %d bytes; the test needs several flushes", whole.Len())
	}
	sentinel := errors.New("disk full")
	for _, failAt := range []int{0, 3 * csvFlushBytes, whole.Len() - 1} {
		w := &failingWriter{failAt: failAt, err: sentinel}
		if err := rep.WriteMetricsCSV(w); err != sentinel {
			t.Errorf("writer failing after %d bytes: WriteMetricsCSV = %v, want the writer's own error", failAt, err)
		}
		if failAt == 0 && w.writes != 1 {
			t.Errorf("kept writing after the first write failed: %d writes", w.writes)
		}
	}
	// A writer that takes less than it was given without saying why.
	short := writerFunc(func(p []byte) (int, error) { return len(p) / 2, nil })
	if err := rep.WriteMetricsCSV(short); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("short write: WriteMetricsCSV = %v, want io.ErrShortWrite", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestScanMetricsCSVStopsOnCallbackError: the callback's error ends the
// scan and comes back as it is.
func TestScanMetricsCSVStopsOnCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := awkwardReport(2, false).WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("seen enough")
	calls := 0
	err := ScanMetricsCSV(&buf, func(*MetricPoint) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Errorf("ScanMetricsCSV = %v after %d calls, want the callback's error after 3", err, calls)
	}
}

const (
	goodCSVHeader = "epoch,cycle,kind,id,name,row,col,field,value,per_cycle\n"
	goodCSVRow    = "0,3,router,3,r3,0,3,writes,12,3.0000\n"
)

// damagedMetricsCSVs are the inputs TestReadMetricsCSVRejectsDamagedInput
// names by row and column; FuzzReadMetricsCSV starts from them.
var damagedMetricsCSVs = []struct {
	name, in string
	row      int
	column   string
}{
	{"cut after a comma", goodCSVHeader + goodCSVRow + "1,7,router,3,r3,0,3,writes,", 3, "value"},
	{"cut inside a row", goodCSVHeader + goodCSVRow + "1,7,router,3,r", 3, "row"},
	{"cut to one field", goodCSVHeader + "1", 2, "cycle"},
	{"non-numeric value", goodCSVHeader + goodCSVRow + goodCSVRow + "1,7,router,3,r3,0,3,writes,abc,\n", 4, "value"},
	{"non-numeric epoch", goodCSVHeader + "x,7,router,3,r3,0,3,writes,1,\n", 2, "epoch"},
	{"fractional id", goodCSVHeader + "1,7,router,1.5,r3,0,3,writes,1,\n", 2, "id"},
	{"first bad column wins", goodCSVHeader + "1,7,router,3,r3,north,,writes,?,\n", 2, "row"},
	{"value out of range", goodCSVHeader + "1,7,router,3,r3,0,3,writes,99999999999999999999,\n", 2, "value"},
	{"short header", "epoch,cycle,kind\n" + "0,3,router\n", 1, "id"},
	{"renamed header column", "epoch,cycle,kind,id,name,row,col,metric,value\n", 1, "field"},
	{"foreign file", "not,a,metrics\nfile,0,0\n", 1, "epoch"},
}

// FuzzReadMetricsCSV: whatever the bytes, the decoder returns points or an
// error and never panics; an error is a *MetricsCSVError, an encoding/csv
// error wrapped, or the empty-file error; and the streaming scan and the
// collecting reader see the same points and stop at the same place.
func FuzzReadMetricsCSV(f *testing.F) {
	for _, d := range damagedMetricsCSVs {
		f.Add([]byte(d.in))
	}
	var written bytes.Buffer
	if err := awkwardReport(2, true).WriteMetricsCSV(&written); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		pts, err := ReadMetricsCSV(bytes.NewReader(in))
		var scanned []MetricPoint
		scanErr := ScanMetricsCSV(bytes.NewReader(in), func(p *MetricPoint) error {
			scanned = append(scanned, *p)
			return nil
		})
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("ReadMetricsCSV err %v, ScanMetricsCSV err %v", err, scanErr)
		}
		if err == nil {
			if len(pts) != len(scanned) || (len(pts) > 0 && !reflect.DeepEqual(pts, scanned)) {
				t.Fatalf("ReadMetricsCSV returned %d points, the scan yielded %d (or they differ)", len(pts), len(scanned))
			}
			return
		}
		if pts != nil {
			t.Fatalf("ReadMetricsCSV returned %d points beside error %v", len(pts), err)
		}
		var ce, sce *MetricsCSVError
		var pe *csv.ParseError
		switch {
		case errors.As(err, &ce):
			if !errors.As(scanErr, &sce) || sce.Row != ce.Row || sce.Column != ce.Column {
				t.Fatalf("ReadMetricsCSV stopped at %v, the scan at %v", err, scanErr)
			}
			if ce.Row < 1 || ce.Row != len(scanned)+2 && ce.Row != 1 {
				t.Fatalf("error names row %d after %d good points: %v", ce.Row, len(scanned), err)
			}
			if !slices.Contains(MetricsCSVHeader, ce.Column) {
				t.Fatalf("error names column %q, not one of MetricsCSVHeader: %v", ce.Column, err)
			}
		case errors.As(err, &pe):
			if err.Error() != scanErr.Error() {
				t.Fatalf("ReadMetricsCSV: %v; scan: %v", err, scanErr)
			}
		default:
			if err.Error() != "telemetry: empty metrics CSV" || len(scanned) != 0 {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
		}
	})
}
