package telemetry

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceMetricsCSV is the encoding/csv writer WriteMetricsCSV replaced,
// kept as the definition of the format. With sparse set it applies the
// skip rule — zero values are left out of every epoch but the first and
// the last — and the append-based writer must emit these bytes; without
// it, it writes every row, the dense bytes a sparse file expands to.
func referenceMetricsCSV(r *Report, w io.Writer, sparse bool) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(MetricsCSVHeader); err != nil {
		return err
	}
	rec := make([]string, len(MetricsCSVHeader))
	for e := range r.EpochIndex {
		span := r.epochSpan(e)
		middle := e > 0 && e < len(r.EpochIndex)-1
		for _, ss := range r.Sources {
			for fi, f := range ss.Fields {
				v := ss.At(e)[fi]
				if sparse && middle && v == 0 {
					continue
				}
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
		first = 1000 // maxEpochs < epochs run: the window starts mid-run
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
		meta := SourceMeta{Kind: awkwardNames[(i+1)%len(awkwardNames)], ID: i - 2, Name: name, Row: i%3 - 1, Col: -i}
		fields := []Field{
			{Name: "writes"},
			{Name: awkwardNames[(i+2)%len(awkwardNames)], Gauge: true},
			{Name: awkwardNames[(i+3)%len(awkwardNames)]},
		}
		var vals []int64
		for e := 0; e < epochs; e++ {
			vals = append(vals,
				int64(e*i)%7*1000003,   // zero on many rows
				int64(i)-5,             // gauge, sometimes negative
				-int64(e+1)*int64(i%4)) // negative and zero deltas
		}
		r.Sources = append(r.Sources, packedSeries(meta, fields, epochs, vals))
	}
	return r
}

// silentMiddleReport is a Collector-harvested report whose sources are
// busy in the first epoch and in the last, partial one and silent in
// between — every middle value is zero, gauge included — so the sparse
// file holds no row at all for the middle epochs.
func silentMiddleReport() *Report {
	c := New(Config{Epoch: 4}, 1)
	state := make([]int64, 3)
	c.AddSource(0, SourceMeta{Kind: "router", ID: 3, Name: "r3", Row: 0, Col: 3},
		[]Field{{Name: "writes"}, {Name: "occupancy", Gauge: true}},
		func(dst []int64) { copy(dst, state[:2]) })
	c.AddSource(0, SourceMeta{Kind: "link", ID: 0, Name: "l0", Row: -1, Col: -1},
		[]Field{{Name: "flits"}}, func(dst []int64) { dst[0] = state[2] })
	c.Start()
	ec := c.EpochCommitter(0)
	for cycle := int64(0); cycle < 23; cycle++ {
		state[1] = 0
		if cycle < 4 || cycle >= 20 {
			state[0] += 3
			state[1] = cycle
			state[2]++
		}
		ec.Commit(cycle)
	}
	return c.Harvest(23)
}

// metricsCSVReports are the reports the writer's byte tests run over.
func metricsCSVReports() []struct {
	name string
	rep  *Report
} {
	big := awkwardReport(3, false)
	// Enough rows to cross the flush threshold several times.
	for len(big.Sources) < 4000 {
		big.Sources = append(big.Sources, big.Sources[:len(awkwardNames)]...)
	}
	noSpan := awkwardReport(2, false)
	noSpan.EpochEnd[1] = noSpan.EpochEnd[0] // a zero-cycle epoch leaves per_cycle empty
	return []struct {
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
		{"harvested, silent middle epochs", silentMiddleReport()},
	}
}

func TestWriteMetricsCSVMatchesEncodingCSV(t *testing.T) {
	for _, tc := range metricsCSVReports() {
		t.Run(tc.name, func(t *testing.T) {
			var want, got bytes.Buffer
			if err := referenceMetricsCSV(tc.rep, &want, true); err != nil {
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
			pts, err := scanAll(&got)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for e := range tc.rep.EpochIndex {
				middle := e > 0 && e < len(tc.rep.EpochIndex)-1
				for _, ss := range tc.rep.Sources {
					for fi, f := range ss.Fields {
						v := ss.At(e)[fi]
						if middle && v == 0 {
							continue
						}
						if n == len(pts) {
							t.Fatalf("read %d points back, wrote more", n)
						}
						p := pts[n]
						n++
						// encoding/csv's reader folds "\r\n" inside a quoted field to "\n".
						if p.Kind != unCRLF(ss.Meta.Kind) || p.Name != unCRLF(ss.Meta.Name) || p.Field != unCRLF(f.Name) ||
							p.ID != ss.Meta.ID || p.Value != v || p.Epoch != tc.rep.EpochIndex[e] {
							t.Fatalf("point %d = %+v, want source %+v field %q value %d", n-1, p, ss.Meta, f.Name, v)
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

// expandMetricsCSV rebuilds, from a sparse WriteMetricsCSV file alone, the
// dense file it stands for: the first epoch's rows give every (source,
// field) label in order and, by an empty per_cycle cell, the gauges; the
// first row gives the epoch period; and a label missing from an epoch
// between the first and the last comes back as a zero row. Rows the file
// holds are copied byte for byte, so their quoting survives untouched.
func expandMetricsCSV(sparse []byte) ([]byte, error) {
	type row struct {
		epoch, cycle int64
		label        string // "kind,id,name,row,col,field," as written
		gauge        bool
		raw          []byte
	}
	cr := csv.NewReader(bytes.NewReader(sparse))
	var (
		header []byte
		rows   []row
		start  int64
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		raw := sparse[start:cr.InputOffset()]
		start = cr.InputOffset()
		if header == nil {
			header = raw
			continue
		}
		epoch, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, err
		}
		cycle, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, err
		}
		// epoch, cycle, value and per_cycle are bare numbers, so the label
		// is what lies between the second comma and the value.
		label := raw[len(rec[0])+len(rec[1])+2 : len(raw)-len(rec[8])-len(rec[9])-2]
		rows = append(rows, row{epoch, cycle, string(label), rec[9] == "", raw})
	}
	var out bytes.Buffer
	out.Write(header)
	if len(rows) == 0 {
		return out.Bytes(), nil
	}
	first, last := rows[0].epoch, rows[len(rows)-1].epoch
	period := (rows[0].cycle + 1) / (first + 1)
	var labels []row
	for _, r := range rows {
		if r.epoch != first {
			break
		}
		labels = append(labels, r)
	}
	i := 0
	for e := first; e <= last; e++ {
		cycle := (e+1)*period - 1
		for _, l := range labels {
			if i < len(rows) && rows[i].epoch == e && rows[i].label == l.label {
				if e != last && rows[i].cycle != cycle {
					return nil, fmt.Errorf("epoch %d row ends at cycle %d, want %d", e, rows[i].cycle, cycle)
				}
				out.Write(rows[i].raw)
				i++
				continue
			}
			if e == first || e == last {
				return nil, fmt.Errorf("full epoch %d lacks %q", e, l.label)
			}
			rate := "0.0000"
			if l.gauge {
				rate = ""
			}
			fmt.Fprintf(&out, "%d,%d,%s0,%s\n", e, cycle, l.label, rate)
		}
	}
	if i != len(rows) {
		return nil, fmt.Errorf("row %d (%q) is out of order", i+2, rows[i].raw)
	}
	return out.Bytes(), nil
}

// TestSparseMetricsCSVIsLossless: the sparse file expands, from its own
// bytes, to exactly what the dense reference writer emits.
func TestSparseMetricsCSVIsLossless(t *testing.T) {
	for _, tc := range metricsCSVReports() {
		t.Run(tc.name, func(t *testing.T) {
			var dense, sparse bytes.Buffer
			if err := referenceMetricsCSV(tc.rep, &dense, false); err != nil {
				t.Fatal(err)
			}
			if err := tc.rep.WriteMetricsCSV(&sparse); err != nil {
				t.Fatal(err)
			}
			got, err := expandMetricsCSV(sparse.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, dense.Bytes()) {
				t.Fatalf("expanded sparse file differs from the dense reference at byte %d of %d (reference %d)",
					firstDiff(got, dense.Bytes()), len(got), dense.Len())
			}
		})
	}
	// The harvested case really leaves its middle epochs out.
	var sparse bytes.Buffer
	if err := silentMiddleReport().WriteMetricsCSV(&sparse); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sparse.String(), "\n"); lines != 1+2*3 {
		t.Errorf("silent middle epochs: sparse file has %d lines, want header + 2 full epochs of 3 rows:\n%s", lines, sparse.String())
	}
}

// TestAppendPerCycleMatchesStrconv: the per_cycle formatter emits what
// strconv.AppendFloat(v/span, 'f', 4, 64) does — on its integer path for
// power-of-two spans (rounding halves to even, "-0.0000" for a small
// negative v) and on its fallback for every other span and outsized v.
func TestAppendPerCycleMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(v, span int64) {
		got = appendPerCycle(got[:0], v, span)
		want = strconv.AppendFloat(want[:0], float64(v)/float64(span), 'f', 4, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendPerCycle(%d, %d) = %s, strconv says %s", v, span, got, want)
		}
	}
	for k := 0; k <= 12; k++ {
		for v := int64(-20_000); v <= 300_000; v++ {
			check(v, 1<<k)
		}
	}
	for _, span := range []int64{3, 100, 156, 255, 257, 1000, 4095} {
		for v := int64(-2_000); v <= 2_000; v++ {
			check(v, span)
		}
	}
	for _, v := range []int64{perCycleExactMax - 1, perCycleExactMax, 1 - perCycleExactMax, -perCycleExactMax, math.MaxInt64, math.MinInt64} {
		for k := 0; k <= 12; k++ {
			check(v, 1<<k)
		}
		check(v, 3)
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

// TestWriteChromeTraceReturnsTheWritersError: the trace writer hands its
// buffer out in several writes and stops at the first that fails.
func TestWriteChromeTraceReturnsTheWritersError(t *testing.T) {
	rep := &Report{}
	for pkt := uint64(1); pkt <= 2000; pkt++ {
		rep.Events = append(rep.Events,
			Event{Cycle: int64(pkt), Packet: pkt, Kind: EvInject, Loc: int32(pkt % 64), Aux: 5},
			Event{Cycle: int64(pkt) + 9, Packet: pkt, Kind: EvEject, Loc: 5, Aux: 3})
	}
	var whole bytes.Buffer
	if err := rep.WriteChromeTrace(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.Len() < 4*csvFlushBytes {
		t.Fatalf("report renders to %d bytes; the test needs several flushes", whole.Len())
	}
	sentinel := errors.New("disk full")
	for _, failAt := range []int{0, 2 * csvFlushBytes, whole.Len() - 1} {
		w := &failingWriter{failAt: failAt, err: sentinel}
		if err := rep.WriteChromeTrace(w); err != sentinel {
			t.Errorf("writer failing after %d bytes: WriteChromeTrace = %v, want the writer's own error", failAt, err)
		}
		if failAt == 0 && w.writes != 1 {
			t.Errorf("kept writing after the first write failed: %d writes", w.writes)
		}
	}
	short := writerFunc(func(p []byte) (int, error) { return len(p) / 2, nil })
	if err := rep.WriteChromeTrace(short); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("short write: WriteChromeTrace = %v, want io.ErrShortWrite", err)
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
// names by row and column; FuzzScanMetricsCSV starts from them.
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

// FuzzScanMetricsCSV: whatever the bytes, the scan yields points or an
// error and never panics; an error is a *MetricsCSVError naming the row
// after the last point yielded (or the header) and a MetricsCSVHeader
// column, an encoding/csv error wrapped, or the empty-file error; and an
// error from the callback stops the scan at that point and comes back as
// it is, whatever follows in the input.
func FuzzScanMetricsCSV(f *testing.F) {
	for _, d := range damagedMetricsCSVs {
		f.Add([]byte(d.in))
	}
	for _, rep := range []*Report{awkwardReport(2, true), silentMiddleReport()} {
		var written bytes.Buffer
		if err := rep.WriteMetricsCSV(&written); err != nil {
			f.Fatal(err)
		}
		f.Add(written.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		scanned, err := scanAll(bytes.NewReader(in))
		if len(scanned) > 0 {
			stop, calls := errors.New("stop"), 0
			if got := ScanMetricsCSV(bytes.NewReader(in), func(*MetricPoint) error { calls++; return stop }); got != stop || calls != 1 {
				t.Fatalf("a callback error after the first of %d points: scan returned %v after %d calls", len(scanned), got, calls)
			}
		}
		if err == nil {
			return
		}
		var ce *MetricsCSVError
		var pe *csv.ParseError
		switch {
		case errors.As(err, &ce):
			if ce.Row < 1 || ce.Row != len(scanned)+2 && ce.Row != 1 {
				t.Fatalf("error names row %d after %d good points: %v", ce.Row, len(scanned), err)
			}
			if !slices.Contains(MetricsCSVHeader, ce.Column) {
				t.Fatalf("error names column %q, not one of MetricsCSVHeader: %v", ce.Column, err)
			}
		case errors.As(err, &pe):
		default:
			if err.Error() != "telemetry: empty metrics CSV" || len(scanned) != 0 {
				t.Fatalf("unclassified error %T: %v", err, err)
			}
		}
	})
}

// traceEvent is one Chrome Trace Event (the JSON array format). Cycles
// map 1:1 onto the format's microsecond timestamps, so one Perfetto
// "us" reads as one simulated cycle.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ReferenceChromeTrace lets the external tests compare WriteChromeTrace
// with referenceChromeTrace.
var ReferenceChromeTrace = referenceChromeTrace

// referenceChromeTrace is the writer WriteChromeTrace replaced, kept as
// the definition of the trace bytes: it builds every trace event with an
// args map and marshals each one with encoding/json.
func referenceChromeTrace(r *Report, w io.Writer) error {
	bw := bufio.NewWriter(w)

	var out []traceEvent
	jobs := map[int64]bool{}
	nodes := map[int64]bool{}
	record := func(ev traceEvent) {
		jobs[ev.Pid] = true
		if ev.Tid != scheduleTid {
			nodes[ev.Tid] = true
		}
		out = append(out, ev)
	}

	// Per-packet spans: events are sorted by (cycle, packet, ...), so
	// regroup by packet id first, preserving cycle order within each.
	byPkt := map[uint64][]Event{}
	var order []uint64
	phases := map[[2]int64][3]int64{} // (job, phase) -> start/injected/drained cycles
	for _, ev := range r.Events {
		switch ev.Kind {
		case EvPhaseStart, EvPhaseInjected, EvPhaseDrained:
			key := [2]int64{int64(ev.Loc), ev.Aux}
			tl := phases[key]
			tl[int(ev.Kind-EvPhaseStart)] = ev.Cycle + 1 // +1 so cycle 0 stays distinguishable
			phases[key] = tl
		default:
			if _, seen := byPkt[ev.Packet]; !seen {
				order = append(order, ev.Packet)
			}
			byPkt[ev.Packet] = append(byPkt[ev.Packet], ev)
		}
	}

	for _, pid := range order {
		evs := byPkt[pid]
		first, last := evs[0], evs[len(evs)-1]
		// The tag's raw job field (job index + 1, 0 = untagged) is the
		// process id, matching the phase spans' job+1 tracks.
		pidTrack := int64(first.Tag.Job())
		id := strconv.FormatUint(pid, 10)
		args := map[string]any{
			"packet": pid,
			// Job is the scheduler's job index (-1 for untagged traffic;
			// the tag's job field is offset by one).
			"job":   int64(first.Tag.Job()) - 1,
			"phase": int64(first.Tag.Phase()),
		}
		if first.Kind == EvInject {
			args["src"] = first.Loc
			args["dst"] = first.Aux
		}
		record(traceEvent{Name: "packet", Cat: "packet", Ph: "b", Ts: first.Cycle,
			Pid: pidTrack, Tid: int64(first.Loc) + 1, ID: id, Args: args})
		for i, ev := range evs {
			switch ev.Kind {
			case EvGatherUpload, EvReduceMerge:
				record(traceEvent{Name: ev.Kind.String(), Cat: "collective", Ph: "i", Ts: ev.Cycle,
					Pid: pidTrack, Tid: int64(ev.Loc) + 1, S: "t",
					Args: map[string]any{"packet": pid, "operand_src": ev.Aux}})
				continue
			case EvEject:
				continue
			}
			// Stage slice: from this step to the packet's next step.
			dur := int64(1)
			if i+1 < len(evs) {
				dur = evs[i+1].Cycle - ev.Cycle
			}
			if dur < 1 {
				dur = 1
			}
			record(traceEvent{Name: ev.Kind.String(), Cat: "stage", Ph: "X", Ts: ev.Cycle, Dur: dur,
				Pid: pidTrack, Tid: int64(ev.Loc) + 1,
				Args: map[string]any{"packet": pid}})
		}
		endArgs := map[string]any{"packet": pid, "latency": last.Cycle - first.Cycle}
		if last.Kind == EvEject {
			endArgs["hops"] = last.Aux
		}
		record(traceEvent{Name: "packet", Cat: "packet", Ph: "e", Ts: last.Cycle,
			Pid: pidTrack, Tid: int64(last.Loc) + 1, ID: id, Args: endArgs})
	}

	phaseKeys := make([][2]int64, 0, len(phases))
	for key := range phases {
		phaseKeys = append(phaseKeys, key)
	}
	sort.Slice(phaseKeys, func(i, j int) bool {
		if phaseKeys[i][0] != phaseKeys[j][0] {
			return phaseKeys[i][0] < phaseKeys[j][0]
		}
		return phaseKeys[i][1] < phaseKeys[j][1]
	})
	for _, key := range phaseKeys {
		tl := phases[key]
		job, phase := key[0], key[1]
		start, injected, drained := tl[0]-1, tl[1]-1, tl[2]-1
		if tl[0] == 0 {
			continue
		}
		end := drained
		if tl[2] == 0 {
			end = start // never drained: zero-length marker
		}
		args := map[string]any{"job": job, "phase": phase}
		if tl[1] != 0 {
			args["injected_cycle"] = injected
		}
		record(traceEvent{Name: fmt.Sprintf("job%d/phase%d", job, phase), Cat: "phase",
			Ph: "X", Ts: start, Dur: max64(end-start, 1), Pid: job + 1, Tid: scheduleTid, Args: args})
	}

	// Metadata: name the job processes and node threads, in sorted order
	// so the output is byte-deterministic.
	jobIDs := sortedKeys(jobs)
	nodeIDs := sortedKeys(nodes)
	for _, pid := range jobIDs {
		name := fmt.Sprintf("job %d", pid-1)
		if pid == 0 {
			name = "untagged"
		}
		out = append(out, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
		out = append(out, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: scheduleTid,
			Args: map[string]any{"name": "schedule"}})
	}
	for _, pid := range jobIDs {
		for _, tid := range nodeIDs {
			out = append(out, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("node %d", tid-1)}})
		}
	}

	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i := range out {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		b, err := json.Marshal(&out[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
