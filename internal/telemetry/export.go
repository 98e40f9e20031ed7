// Export formats: a long-form CSV for the epoch metrics (one row per
// non-zero epoch x source x field, the first and last epochs in full —
// the format gatherviz renders heatmaps from)
// and Chrome Trace Event JSON for the lifecycle events, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
package telemetry

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// MetricsCSVHeader is the column layout WriteMetricsCSV emits.
var MetricsCSVHeader = []string{"epoch", "cycle", "kind", "id", "name", "row", "col", "field", "value", "per_cycle"}

// WriteMetricsCSV writes the epoch series in long form, one row per
// (epoch, source, field) whose value is non-zero. The first and the last
// retained epochs are written in full, zeros included: the first names
// every source and field (and its empty per_cycle cells mark the gauges),
// the last carries the final, possibly partial, epoch's end cycle. The
// retained epochs are consecutive, so nothing is lost: a (source, field)
// pair missing from an epoch between those two reads 0 there. The
// per_cycle column divides delta fields by the epoch's actual cycle span
// (the last epoch may be partial), which for links is the utilization in
// flits/cycle; gauge fields leave it empty.
//
// The bytes are what encoding/csv would emit for those rows, but the file
// is mostly repetition — every epoch walks the same sources and fields —
// so the writer quotes each source's "kind,id,name,row,col," prefix and
// each field name once, formats the "epoch,cycle," prefix once per epoch,
// and appends rows into one buffer handed to w in writes of about
// csvFlushBytes.
func (r *Report) WriteMetricsCSV(w io.Writer) error {
	buf := make([]byte, 0, csvFlushBytes+4096)
	for i, col := range MetricsCSVHeader {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, col)
	}
	buf = append(buf, '\n')

	// labels holds, in the order rows are emitted, each source's prefix
	// followed by that source's field names, every piece ending in its
	// comma; piece k is labels[ends[k]:ends[k+1]].
	pieces := 0
	for i := range r.Sources {
		pieces += 1 + len(r.Sources[i].Fields)
	}
	labels := make([]byte, 0, 24*pieces)
	ends := append(make([]int, 0, pieces+1), 0)
	var name []byte // each source's name, formatted here (Source.AppendName)
	for i := range r.Sources {
		ss := &r.Sources[i]
		labels = append(appendCSVField(labels, ss.Meta.Kind), ',')
		labels = append(strconv.AppendInt(labels, int64(ss.Meta.ID), 10), ',')
		name = ss.from.AppendName(name[:0])
		labels = append(appendCSVField(labels, name), ',')
		labels = append(strconv.AppendInt(labels, int64(ss.Meta.Row), 10), ',')
		labels = append(strconv.AppendInt(labels, int64(ss.Meta.Col), 10), ',')
		ends = append(ends, len(labels))
		for _, f := range ss.Fields {
			labels = append(appendCSVField(labels, f.Name), ',')
			ends = append(ends, len(labels))
		}
	}

	var prefixBuf [2 * (20 + 1)]byte // two int64s and their commas
	epochPrefix := prefixBuf[:0]
	last := len(r.EpochIndex) - 1
	for e := range r.EpochIndex {
		full := e == 0 || e == last
		span := r.epochSpan(e)
		epochPrefix = append(strconv.AppendInt(epochPrefix[:0], r.EpochIndex[e], 10), ',')
		epochPrefix = append(strconv.AppendInt(epochPrefix, r.EpochEnd[e], 10), ',')
		k := 0
		for i := range r.Sources {
			ss := &r.Sources[i]
			source := labels[ends[k]:ends[k+1]]
			k++
			for fi, v := range ss.At(e) {
				field := labels[ends[k]:ends[k+1]]
				k++
				if v == 0 && !full {
					continue
				}
				buf = append(buf, epochPrefix...)
				buf = append(buf, source...)
				buf = append(buf, field...)
				buf = append(strconv.AppendInt(buf, v, 10), ',')
				if !ss.Fields[fi].Gauge && span > 0 {
					buf = appendPerCycle(buf, v, span)
				}
				buf = append(buf, '\n')
			}
			if len(buf) >= csvFlushBytes {
				if err := writeAll(w, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	return writeAll(w, buf)
}

// csvFlushBytes is how much WriteMetricsCSV and WriteChromeTrace buffer
// between writes.
const csvFlushBytes = 64 << 10

// writeAll hands p to w in one Write, returning w's error unchanged.
func writeAll(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// appendCSVField appends field as encoding/csv's Writer emits it (comma
// separator, "\n" line ends): bare unless it holds a comma, a quote, CR or
// LF, starts with a space character or is the `\.` end-of-data marker, and
// otherwise wrapped in quotes with every inner quote doubled.
func appendCSVField[S ~string | ~[]byte](dst []byte, field S) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

func csvFieldNeedsQuotes[S ~string | ~[]byte](field S) bool {
	if len(field) == 0 {
		return false
	}
	if string(field) == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	for _, first := range string(field) {
		return unicode.IsSpace(first)
	}
	return false
}

// epochSpan returns the cycle count epoch e covers.
func (r *Report) epochSpan(e int) int64 {
	if e == 0 {
		return r.EpochEnd[0] + 1 - r.EpochIndex[0]*r.Epoch
	}
	return r.EpochEnd[e] - r.EpochEnd[e-1]
}

// perCycleExactMax bounds |v| for appendPerCycle's integer path: below it
// float64(v) is exact and |v|*10000 fits in a uint64.
const perCycleExactMax = 1 << 50

// appendPerCycle appends v/span (span > 0) exactly as
// strconv.AppendFloat(dst, float64(v)/float64(span), 'f', 4, 64) does.
// That call always takes strconv's multiprecision path; when span is a
// power of two the quotient is exact in binary, so rounding |v|*10000/span
// half to even in integers gives the same four decimals, and the sign is
// the quotient's, which keeps "-0.0000" for a small negative v. Every other
// span, and an outsized v, is left to strconv.
func appendPerCycle(dst []byte, v, span int64) []byte {
	if span&(span-1) != 0 || v <= -perCycleExactMax || v >= perCycleExactMax {
		return strconv.AppendFloat(dst, float64(v)/float64(span), 'f', 4, 64)
	}
	a := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		a = uint64(-v)
	}
	a *= 10000
	shift := uint(bits.TrailingZeros64(uint64(span)))
	q := a >> shift
	if shift > 0 {
		rem, half := a&(uint64(span)-1), uint64(span)>>1
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	dst = append(strconv.AppendUint(dst, q/10000, 10), '.')
	f := q % 10000
	return append(dst, byte('0'+f/1000), byte('0'+f/100%10), byte('0'+f/10%10), byte('0'+f%10))
}

// MetricPoint is one parsed row of the metrics CSV (see ScanMetricsCSV).
type MetricPoint struct {
	Epoch    int64
	Cycle    int64
	Kind     string
	ID       int
	Name     string
	Row, Col int
	Field    string
	Value    int64
}

// MetricsCSVError reports where ScanMetricsCSV gave up on its input: Row
// is the 1-based record of the file (the header is row 1) and Column the
// MetricsCSVHeader name of the field that is missing or does not parse.
type MetricsCSVError struct {
	Row    int
	Column string
	Err    error
}

func (e *MetricsCSVError) Error() string {
	return fmt.Sprintf("telemetry: metrics CSV row %d, column %q: %v", e.Row, e.Column, e.Err)
}

func (e *MetricsCSVError) Unwrap() error { return e.Err }

// metricsCSVColumns is how many leading columns ScanMetricsCSV needs; the
// derived per_cycle column after them is optional.
const metricsCSVColumns = 9

var errMetricsCSVMissing = errors.New("missing")

// ScanMetricsCSV parses a WriteMetricsCSV stream one row at a time and
// calls fn with each point, in file order, holding one record in memory
// however long the file is. The point is reused between calls (its strings
// are not); fn copies what it keeps, and an error from fn stops the scan
// and is returned as it is. A header that is not MetricsCSVHeader, a row
// cut short or a number that does not parse is a *MetricsCSVError naming
// the place, never a zero handed to fn.
//
// The scan yields the rows the file holds. A WriteMetricsCSV file omits
// zero values except in its first and last epochs, which are complete, so
// a consumer that needs every (epoch, source, field) takes the sources and
// fields from the first epoch's rows, the epochs as the run from the first
// epoch to the last, and 0 for a pair missing from an epoch in between.
func ScanMetricsCSV(rd io.Reader, fn func(*MetricPoint) error) error {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // short rows are reported below, with their column
	cr.ReuseRecord = true
	var (
		p        MetricPoint
		rec      []string
		row      int
		firstErr error
	)
	num := func(col, bits int) int64 {
		v, err := strconv.ParseInt(rec[col], 10, bits)
		if err != nil && firstErr == nil {
			firstErr = &MetricsCSVError{Row: row, Column: MetricsCSVHeader[col], Err: err}
		}
		return v
	}
	for {
		var err error
		rec, err = cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("telemetry: metrics CSV: %w", err)
		}
		row++
		if row == 1 {
			for i, want := range MetricsCSVHeader[:metricsCSVColumns] {
				if i >= len(rec) {
					return &MetricsCSVError{Row: 1, Column: want, Err: errMetricsCSVMissing}
				}
				if got := rec[i]; got != want {
					return &MetricsCSVError{Row: 1, Column: want, Err: fmt.Errorf("header reads %q: not a metrics CSV", got)}
				}
			}
			continue
		}
		if len(rec) < metricsCSVColumns {
			return &MetricsCSVError{Row: row, Column: MetricsCSVHeader[len(rec)], Err: errMetricsCSVMissing}
		}
		p = MetricPoint{
			Epoch: num(0, 64), Cycle: num(1, 64), Kind: rec[2], ID: int(num(3, strconv.IntSize)), Name: rec[4],
			Row: int(num(5, strconv.IntSize)), Col: int(num(6, strconv.IntSize)), Field: rec[7], Value: num(8, 64),
		}
		if firstErr != nil {
			return firstErr
		}
		if err := fn(&p); err != nil {
			return err
		}
	}
	if row == 0 {
		return fmt.Errorf("telemetry: empty metrics CSV")
	}
	return nil
}

// Track layout: pid = workload job index + 1 (0 for untagged traffic),
// tid 0 = the job's schedule track (phase spans), tid = node+1 = that
// node's pipeline-stage slices. Cycles map 1:1 onto the format's
// microsecond timestamps, so one Perfetto "us" reads as one simulated
// cycle.
const scheduleTid = 0

// WriteChromeTrace writes the event stream as Chrome Trace Event JSON:
// per-packet async spans (inject to eject) bracketing per-stage "X"
// slices on the node tracks, instant events for gather uploads and INA
// merges, and per-job phase spans on each job's schedule track, all
// tagged with job/phase args, then the metadata naming the job processes
// and node threads in sorted order.
//
// The bytes are what json.Marshal emits for each trace event of the JSON
// array format (fields name, cat, ph, ts, dur, pid, tid, id, s, args in
// that order; cat, dur, id and s left out when empty; args keys sorted),
// but no event is built: the writer regroups the events by packet with
// one counting sort, appends each trace event straight into one buffer
// and hands it to w in writes of about csvFlushBytes.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	tw := &traceWriter{
		w:     w,
		buf:   make([]byte, 0, csvFlushBytes+4096),
		jobs:  map[int64]bool{},
		nodes: map[int64]bool{},
	}
	tw.buf = append(tw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)

	// Per-packet spans: events are sorted by (cycle, packet, ...), so
	// regroup them by packet id — packets in order of first appearance,
	// cycle order within each — by counting each packet's events and
	// placing them stably. Phase boundaries fold into one timeline per
	// (job, phase).
	rank := map[uint64]int32{}
	keys := make([]int32, len(r.Events)) // the event's packet rank, -1 for a phase event
	var starts []int32                   // events per packet, then each packet's first slot
	phases := map[[2]int64][3]int64{}    // (job, phase) -> start/injected/drained cycles
	for i, ev := range r.Events {
		switch ev.Kind {
		case EvPhaseStart, EvPhaseInjected, EvPhaseDrained:
			key := [2]int64{int64(ev.Loc), ev.Aux}
			tl := phases[key]
			tl[int(ev.Kind-EvPhaseStart)] = ev.Cycle + 1 // +1 so cycle 0 stays distinguishable
			phases[key] = tl
			keys[i] = -1
		default:
			k, seen := rank[ev.Packet]
			if !seen {
				k = int32(len(starts))
				rank[ev.Packet] = k
				starts = append(starts, 0)
			}
			starts[k]++
			keys[i] = k
		}
	}
	total := int32(0)
	for k, n := range starts {
		starts[k] = total
		total += n
	}
	order := make([]int32, total)
	next := slices.Clone(starts)
	for i, k := range keys {
		if k >= 0 {
			order[next[k]] = int32(i)
			next[k]++
		}
	}
	for k, from := range starts {
		if err := tw.packet(r.Events, order[from:next[k]]); err != nil {
			return err
		}
	}

	phaseKeys := make([][2]int64, 0, len(phases))
	for key := range phases {
		phaseKeys = append(phaseKeys, key)
	}
	slices.SortFunc(phaseKeys, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
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
		b := strconv.AppendInt(append(tw.open(), `"job`...), job, 10)
		b = strconv.AppendInt(append(b, `/phase`...), phase, 10)
		b = tw.fields(append(b, '"'), "phase", "X", start, max(end-start, 1), job+1, scheduleTid)
		b = append(b, `,"args":{`...)
		if tl[1] != 0 {
			b = append(strconv.AppendInt(append(b, `"injected_cycle":`...), injected, 10), ',')
		}
		b = strconv.AppendInt(append(b, `"job":`...), job, 10)
		b = strconv.AppendInt(append(b, `,"phase":`...), phase, 10)
		if err := tw.close(append(b, "}}"...)); err != nil {
			return err
		}
	}

	// Metadata: name the job processes and node threads, in sorted order
	// so the output is byte-deterministic.
	jobIDs := sortedKeys(tw.jobs)
	nodeIDs := sortedKeys(tw.nodes)
	for _, pid := range jobIDs {
		b := append(tw.event("process_name", "", "M", 0, 0, pid, 0), `,"args":{"name":"`...)
		if pid == 0 {
			b = append(b, "untagged"...)
		} else {
			b = strconv.AppendInt(append(b, "job "...), pid-1, 10)
		}
		if err := tw.close(append(b, `"}}`...)); err != nil {
			return err
		}
		b = append(tw.event("thread_name", "", "M", 0, 0, pid, scheduleTid), `,"args":{"name":"schedule"}}`...)
		if err := tw.close(b); err != nil {
			return err
		}
	}
	for _, pid := range jobIDs {
		for _, tid := range nodeIDs {
			b := append(tw.event("thread_name", "", "M", 0, 0, pid, tid), `,"args":{"name":"node `...)
			if err := tw.close(append(strconv.AppendInt(b, tid-1, 10), `"}}`...)); err != nil {
				return err
			}
		}
	}
	return writeAll(w, append(tw.buf, "]}\n"...))
}

// traceWriter appends trace events to buf, hands buf to w whenever it
// passes csvFlushBytes, and keeps the job processes and node threads the
// events used, for the metadata at the end. Each event is built by open or
// event, the caller's appends, and close.
type traceWriter struct {
	w           io.Writer
	buf         []byte
	n           int // events opened
	jobs, nodes map[int64]bool
}

// packet writes one packet's span, stage slices and collective instants;
// idx lists its events in cycle order.
func (tw *traceWriter) packet(events []Event, idx []int32) error {
	first, last := &events[idx[0]], &events[idx[len(idx)-1]]
	pid := first.Packet
	// The tag's raw job field (job index + 1, 0 = untagged) is the process
	// id, matching the phase spans' job+1 tracks; the job arg is the
	// scheduler's job index (-1 for untagged traffic).
	track := int64(first.Tag.Job())

	b := tw.event("packet", "packet", "b", first.Cycle, 0, track, int64(first.Loc)+1)
	b = strconv.AppendUint(append(b, `,"id":"`...), pid, 10)
	b = append(b, `","args":{`...)
	if first.Kind == EvInject {
		b = append(strconv.AppendInt(append(b, `"dst":`...), first.Aux, 10), ',')
	}
	b = strconv.AppendInt(append(b, `"job":`...), track-1, 10)
	b = strconv.AppendUint(append(b, `,"packet":`...), pid, 10)
	b = strconv.AppendInt(append(b, `,"phase":`...), int64(first.Tag.Phase()), 10)
	if first.Kind == EvInject {
		b = strconv.AppendInt(append(b, `,"src":`...), int64(first.Loc), 10)
	}
	if err := tw.close(append(b, "}}"...)); err != nil {
		return err
	}

	for i, j := range idx {
		ev := &events[j]
		switch ev.Kind {
		case EvGatherUpload, EvReduceMerge:
			b = tw.event(ev.Kind.String(), "collective", "i", ev.Cycle, 0, track, int64(ev.Loc)+1)
			b = strconv.AppendInt(append(b, `,"s":"t","args":{"operand_src":`...), ev.Aux, 10)
			b = strconv.AppendUint(append(b, `,"packet":`...), pid, 10)
		case EvEject:
			continue
		default:
			// Stage slice: from this step to the packet's next step.
			dur := int64(1)
			if i+1 < len(idx) {
				dur = events[idx[i+1]].Cycle - ev.Cycle
			}
			b = tw.event(ev.Kind.String(), "stage", "X", ev.Cycle, max(dur, 1), track, int64(ev.Loc)+1)
			b = strconv.AppendUint(append(b, `,"args":{"packet":`...), pid, 10)
		}
		if err := tw.close(append(b, "}}"...)); err != nil {
			return err
		}
	}

	b = tw.event("packet", "packet", "e", last.Cycle, 0, track, int64(last.Loc)+1)
	b = strconv.AppendUint(append(b, `,"id":"`...), pid, 10)
	b = append(b, `","args":{`...)
	if last.Kind == EvEject {
		b = append(strconv.AppendInt(append(b, `"hops":`...), last.Aux, 10), ',')
	}
	b = strconv.AppendInt(append(b, `"latency":`...), last.Cycle-first.Cycle, 10)
	b = strconv.AppendUint(append(b, `,"packet":`...), pid, 10)
	return tw.close(append(b, "}}"...))
}

// open starts the next event, up to its name's value.
func (tw *traceWriter) open() []byte {
	b := tw.buf
	if tw.n > 0 {
		b = append(b, ',')
	}
	tw.n++
	return append(b, `{"name":`...)
}

// event starts the next event and writes its fields up to tid.
func (tw *traceWriter) event(name, cat, ph string, ts, dur, pid, tid int64) []byte {
	return tw.fields(appendJSONString(tw.open(), name), cat, ph, ts, dur, pid, tid)
}

// fields appends the fields after name, up to tid, and records the event's
// process and node thread.
func (tw *traceWriter) fields(b []byte, cat, ph string, ts, dur, pid, tid int64) []byte {
	tw.jobs[pid] = true
	if tid != scheduleTid {
		tw.nodes[tid] = true
	}
	if cat != "" {
		b = appendJSONString(append(b, `,"cat":`...), cat)
	}
	b = appendJSONString(append(b, `,"ph":`...), ph)
	b = strconv.AppendInt(append(b, `,"ts":`...), ts, 10)
	if dur != 0 {
		b = strconv.AppendInt(append(b, `,"dur":`...), dur, 10)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), pid, 10)
	return strconv.AppendInt(append(b, `,"tid":`...), tid, 10)
}

// close keeps the finished event b and writes the buffer out once it
// passes csvFlushBytes.
func (tw *traceWriter) close(b []byte) error {
	tw.buf = b
	if len(b) < csvFlushBytes {
		return nil
	}
	tw.buf = b[:0]
	return writeAll(tw.w, b)
}

// appendJSONString appends s as encoding/json quotes it. The writer's
// strings are stage labels and fixed names that need no escape; a string
// that does is left to json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

func sortedKeys(m map[int64]bool) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
