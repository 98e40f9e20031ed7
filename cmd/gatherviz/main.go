// Command gatherviz renders the paper's Fig. 1 motivating example as ASCII
// art: collecting one mesh row's results into the global buffer with
// repetitive unicast versus a single gather packet, with hop counts. With
// -merges it additionally simulates the row collection on the
// cycle-accurate network in both gather and in-network-accumulation modes
// and renders each router's measured payload uploads and operand merges.
//
// With -metrics it instead renders congestion heatmaps from a telemetry
// epoch-metrics CSV produced by nocsim -metrics (DESIGN.md §11): one
// ASCII grid per requested field, each cell the field's total over the
// run at that grid position.
//
// Usage:
//
//	gatherviz            # the paper's 6x6 example, row 2
//	gatherviz -size 8 -row 0
//	gatherviz -merges    # simulated per-router upload/merge counts
//	nocsim -rate 0.02 -metrics m.csv && gatherviz -metrics m.csv
//	gatherviz -metrics m.csv -field gather_uploads -kind router
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gathernoc/internal/flit"
	"gathernoc/internal/noc"
	"gathernoc/internal/telemetry"
	"gathernoc/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gatherviz:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gatherviz", flag.ContinueOnError)
	size := fs.Int("size", 6, "mesh dimension")
	row := fs.Int("row", 2, "row whose PEs send to the global buffer")
	merges := fs.Bool("merges", false, "simulate the row collection and render per-router gather uploads and accumulation merges")
	metrics := fs.String("metrics", "", "render congestion heatmaps from a nocsim -metrics CSV instead of the Fig. 1 example")
	field := fs.String("field", "buffer_writes", "metrics field to render (with -metrics)")
	kind := fs.String("kind", "router", "metrics source kind to render (with -metrics): router, nic, sink")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics != "" {
		return renderMetrics(w, *metrics, *kind, *field)
	}
	if *size < 2 || *size > 32 {
		return fmt.Errorf("size %d out of range [2,32]", *size)
	}
	if *row < 0 || *row >= *size {
		return fmt.Errorf("row %d out of range", *row)
	}

	m := topology.MustMesh(*size, *size)
	dst := m.ID(topology.Coord{Row: *row, Col: *size - 1})

	fmt.Fprintf(w, "Fig. 1 — %dx%d mesh, row %d sends results to the global buffer (east edge)\n\n", *size, *size, *row)

	fmt.Fprintf(w, "(a) repetitive unicast: one packet per PE\n")
	drawMesh(w, *size, *row, 'u')
	total := 0
	for c := 0; c < *size; c++ {
		total += m.Hops(m.ID(topology.Coord{Row: *row, Col: c}), dst)
	}
	fmt.Fprintf(w, "    packets: %d, router-to-router hops: %d\n\n", *size, total)

	fmt.Fprintf(w, "(b) gather: one packet collects the row\n")
	drawMesh(w, *size, *row, 'g')
	fmt.Fprintf(w, "    packets: 1, router-to-router hops: %d\n",
		m.Hops(m.ID(topology.Coord{Row: *row, Col: 0}), dst))

	if *merges {
		fmt.Fprintf(w, "\n(c) simulated row collection: per-router payload pickups\n")
		if err := drawPickups(w, *size, *row); err != nil {
			return err
		}
	}
	return nil
}

// simulateRow runs one row collection on a size×size network under the
// given scheme (gather or INA) and returns each column's payload pickup
// count — gather uploads or accumulation merges — plus the flits the sink
// consumed.
func simulateRow(size, row int, scheme noc.CollectScheme) ([]uint64, uint64, error) {
	cfg := noc.DefaultConfig(size, size)
	cfg.EnableINA = true
	nw, err := noc.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	line := nw.RowLine(row, true)
	for col, id := range line.Nodes {
		nw.Submit(&line, col, scheme, 0, flit.Payload{
			Seq: uint64(col), Src: id, Dst: line.Target, Value: uint64(col), Ops: 1,
		})
	}
	if _, err := nw.RunUntilQuiescent(1_000_000); err != nil {
		return nil, 0, err
	}
	counts := make([]uint64, size)
	for col, id := range line.Nodes {
		r := nw.Router(id)
		if scheme == noc.CollectINA {
			counts[col] = r.Counters.ReduceMerges.Value()
		} else {
			counts[col] = r.Counters.GatherUploads.Value()
		}
	}
	return counts, nw.Sink(row).Ejector().FlitsEjected.Value(), nil
}

// drawPickups renders the simulated per-router pickup counts for the
// gather and INA collections of one row.
func drawPickups(w io.Writer, size, row int) error {
	for _, mode := range []struct {
		name   string
		scheme noc.CollectScheme
	}{{"gather uploads", noc.CollectGather}, {"ina merges", noc.CollectINA}} {
		counts, sinkFlits, err := simulateRow(size, row, mode.scheme)
		if err != nil {
			return err
		}
		cells := make([]string, size)
		for col, c := range counts {
			cells[col] = fmt.Sprintf("(%d)", c)
		}
		fmt.Fprintf(w, "    %-14s %s-->[%d sink flits]\n",
			mode.name+":", strings.Join(cells, "---"), sinkFlits)
	}
	fmt.Fprintf(w, "    (n) = payloads picked up at that router as the packet passed\n")
	return nil
}

// heatGlyphs maps normalized load to increasing intensity (the idiom of
// noc.UtilizationHeatmap).
var heatGlyphs = []byte{'.', ':', '-', '=', '+', '*', '#', '@'}

// renderMetrics scans a telemetry epoch-metrics CSV and renders the chosen
// field of the chosen source kind as an ASCII heatmap over the grid, with
// each source's value summed (delta fields) across every retained epoch,
// plus the hottest cells. The file is streamed: rows of other kinds and
// fields are dropped as they are read, so memory follows the grid, not
// the file.
func renderMetrics(w io.Writer, path, kind, field string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type cell struct {
		row, col int
		name     string
		total    int64
	}
	byID := map[int]*cell{}
	rows, cols := 0, 0
	// The file omits zero rows between its first and last epochs, which are
	// complete, so the epochs are the run from the first to the last seen.
	var first, last int64
	fields := map[string]bool{}
	err = telemetry.ScanMetricsCSV(f, func(p *telemetry.MetricPoint) error {
		if p.Kind != kind {
			return nil
		}
		if len(fields) == 0 {
			first, last = p.Epoch, p.Epoch
		}
		fields[p.Field] = true
		first, last = min(first, p.Epoch), max(last, p.Epoch)
		if p.Field != field || p.Row < 0 || p.Col < 0 {
			return nil
		}
		c := byID[p.ID]
		if c == nil {
			c = &cell{row: p.Row, col: p.Col, name: p.Name}
			byID[p.ID] = c
		}
		c.total += p.Value
		if p.Row >= rows {
			rows = p.Row + 1
		}
		if p.Col >= cols {
			cols = p.Col + 1
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(byID) == 0 {
		if fields[field] {
			return fmt.Errorf("no %s/%s heatmap from %s: kind %q has no grid position (its rows read row/col -1)",
				kind, field, path, kind)
		}
		known := make([]string, 0, len(fields))
		for k := range fields {
			known = append(known, k)
		}
		sort.Strings(known)
		return fmt.Errorf("no %s/%s data in %s (kind %q has fields: %s)",
			kind, field, path, kind, strings.Join(known, ", "))
	}

	var peak int64
	cells := make([]*cell, 0, len(byID))
	for _, c := range byID {
		cells = append(cells, c)
		if c.total > peak {
			peak = c.total
		}
	}
	fmt.Fprintf(w, "%s %s over %d epochs (%s), peak %d\n\n", kind, field, last-first+1, path, peak)
	grid := make([][]int64, rows)
	have := make([][]bool, rows)
	for r := range grid {
		grid[r] = make([]int64, cols)
		have[r] = make([]bool, cols)
	}
	for _, c := range cells {
		grid[c.row][c.col] = c.total
		have[c.row][c.col] = true
	}
	for r := 0; r < rows; r++ {
		var b strings.Builder
		b.WriteString("    ")
		for c := 0; c < cols; c++ {
			switch {
			case !have[r][c]:
				b.WriteByte(' ')
			case peak == 0 || grid[r][c] == 0:
				b.WriteByte(heatGlyphs[0])
			default:
				idx := int(grid[r][c] * int64(len(heatGlyphs)-1) / peak)
				if idx >= len(heatGlyphs) {
					idx = len(heatGlyphs) - 1
				}
				b.WriteByte(heatGlyphs[idx])
			}
		}
		fmt.Fprintln(w, b.String())
	}
	fmt.Fprintf(w, "\n    %s = idle .. %s = peak\n\n", string(heatGlyphs[0]), string(heatGlyphs[len(heatGlyphs)-1]))

	sort.Slice(cells, func(i, j int) bool {
		if cells[i].total != cells[j].total {
			return cells[i].total > cells[j].total
		}
		return cells[i].name < cells[j].name
	})
	n := 5
	if len(cells) < n {
		n = len(cells)
	}
	fmt.Fprintf(w, "    hottest:\n")
	for _, c := range cells[:n] {
		fmt.Fprintf(w, "    %-8s (%d,%d)  %d\n", c.name, c.row, c.col, c.total)
	}
	return nil
}

// drawMesh prints the mesh with the active row highlighted. mode 'u' shows
// per-node unicast packets, 'g' shows a single gather packet sweeping east.
func drawMesh(w io.Writer, size, row int, mode byte) {
	for r := 0; r < size; r++ {
		var cells []string
		for c := 0; c < size; c++ {
			switch {
			case r != row:
				cells = append(cells, "( )")
			case mode == 'u':
				cells = append(cells, "(P)")
			case c == 0:
				cells = append(cells, "(G)")
			default:
				cells = append(cells, "(+)")
			}
		}
		sep := "---"
		line := strings.Join(cells, sep)
		if r == row {
			line += "-->[GLOBAL BUFFER]"
		}
		fmt.Fprintf(w, "    %s\n", line)
	}
	switch mode {
	case 'u':
		fmt.Fprintf(w, "    (P) = PE sending its own unicast packet\n")
	case 'g':
		fmt.Fprintf(w, "    (G) = gather initiator, (+) = payload piggybacked en route\n")
	}
}
