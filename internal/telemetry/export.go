// Export formats: a long-form CSV for the epoch metrics (one row per
// epoch x source x field — the format gatherviz renders heatmaps from)
// and Chrome Trace Event JSON for the lifecycle events, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// MetricsCSVHeader is the column layout WriteMetricsCSV emits.
var MetricsCSVHeader = []string{"epoch", "cycle", "kind", "id", "name", "row", "col", "field", "value", "per_cycle"}

// WriteMetricsCSV writes the epoch series in long form: one row per
// (epoch, source, field). The per_cycle column divides delta fields by
// the epoch's actual cycle span (the last epoch may be partial), which
// for links is the utilization in flits/cycle; gauge fields leave it
// empty.
func (r *Report) WriteMetricsCSV(w io.Writer) error {
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

// epochSpan returns the cycle count epoch e covers.
func (r *Report) epochSpan(e int) int64 {
	if e == 0 {
		return r.EpochEnd[0] + 1 - r.EpochIndex[0]*r.Epoch
	}
	return r.EpochEnd[e] - r.EpochEnd[e-1]
}

// MetricPoint is one parsed row of the metrics CSV (see ReadMetricsCSV).
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

// MetricsCSVError reports where ReadMetricsCSV gave up on its input: Row
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

// metricsCSVColumns is how many leading columns ReadMetricsCSV needs; the
// derived per_cycle column after them is optional.
const metricsCSVColumns = 9

var errMetricsCSVMissing = errors.New("missing")

// ReadMetricsCSV parses a WriteMetricsCSV stream back into points;
// gatherviz consumes it to render congestion heatmaps. A header that is not
// MetricsCSVHeader, a row cut short or a number that does not parse is a
// *MetricsCSVError naming the place, never a zero in the result.
func ReadMetricsCSV(rd io.Reader) ([]MetricPoint, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // short rows are reported below, with their column
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics CSV: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("telemetry: empty metrics CSV")
	}
	for i, want := range MetricsCSVHeader[:metricsCSVColumns] {
		if i >= len(recs[0]) {
			return nil, &MetricsCSVError{Row: 1, Column: want, Err: errMetricsCSVMissing}
		}
		if got := recs[0][i]; got != want {
			return nil, &MetricsCSVError{Row: 1, Column: want, Err: fmt.Errorf("header reads %q: not a metrics CSV", got)}
		}
	}
	pts := make([]MetricPoint, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		row := i + 2
		if len(rec) < metricsCSVColumns {
			return nil, &MetricsCSVError{Row: row, Column: MetricsCSVHeader[len(rec)], Err: errMetricsCSVMissing}
		}
		var firstErr error
		num := func(col, bits int) int64 {
			v, err := strconv.ParseInt(rec[col], 10, bits)
			if err != nil && firstErr == nil {
				firstErr = &MetricsCSVError{Row: row, Column: MetricsCSVHeader[col], Err: err}
			}
			return v
		}
		p := MetricPoint{
			Epoch: num(0, 64), Cycle: num(1, 64), Kind: rec[2], ID: int(num(3, strconv.IntSize)), Name: rec[4],
			Row: int(num(5, strconv.IntSize)), Col: int(num(6, strconv.IntSize)), Field: rec[7], Value: num(8, 64),
		}
		if firstErr != nil {
			return nil, firstErr
		}
		pts = append(pts, p)
	}
	return pts, nil
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

// Track layout: pid = workload job index + 1 (0 for untagged traffic),
// tid 0 = the job's schedule track (phase spans), tid = node+1 = that
// node's pipeline-stage slices.
const scheduleTid = 0

// WriteChromeTrace writes the event stream as Chrome Trace Event JSON:
// per-packet async spans (inject to eject) bracketing per-stage "X"
// slices on the node tracks, instant events for gather uploads and INA
// merges, and per-job phase spans on each job's schedule track, all
// tagged with job/phase args.
func (r *Report) WriteChromeTrace(w io.Writer) error {
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

func sortedKeys(m map[int64]bool) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
