package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Emitter renders an executed sweep to a writer.
type Emitter func(w io.Writer, r *Result) error

// emitters is the table-driven format registry: the single source of
// truth behind the CLIs' -format flag and the server's ?format= query,
// so both share one lookup and one error message.
var emitters = map[string]Emitter{
	"table":  emitTable,
	"tsv":    emitTSV,
	"json":   emitJSON,
	"csv":    emitCSV,
	"ndjson": emitNDJSON,
}

// Formats returns the supported emitter format names, sorted.
func Formats() []string {
	out := make([]string, 0, len(emitters))
	for name := range emitters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EmitterFor returns the named emitter.
func EmitterFor(format string) (Emitter, error) {
	e, ok := emitters[format]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown format %q (have %s)",
			format, strings.Join(Formats(), " "))
	}
	return e, nil
}

// grid flattens a result into a header row plus one row per cell:
// axis columns then one value column per probe.
func grid(r *Result) (header []string, rows [][]string) {
	for _, a := range r.Spec.Axes {
		header = append(header, a.Name)
	}
	header = append(header, r.Spec.ProbeLabels()...)
	for _, c := range r.Cells {
		row := append([]string(nil), c.Cell.Coord...)
		for _, v := range c.Values {
			row = append(row, formatValue(v))
		}
		rows = append(rows, row)
	}
	return header, rows
}

// formatValue renders a probe value with enough precision to compare
// runs without drowning the table in digits.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// emitTable renders an aligned-text grid with the spec title.
func emitTable(w io.Writer, r *Result) error {
	header, rows := grid(r)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if r.Spec.Title != "" {
		fmt.Fprintf(w, "%s\n", r.Spec.Title)
	} else {
		fmt.Fprintf(w, "%s\n", r.Spec.Name)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	writeRow(header)
	for i, width := range widths {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, strings.Repeat("-", width))
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		writeRow(row)
	}
	return nil
}

// emitTSV renders a gnuplot-friendly tab-separated grid with a
// commented header.
func emitTSV(w io.Writer, r *Result) error {
	header, rows := grid(r)
	fmt.Fprintf(w, "# %s", r.Spec.Name)
	if r.Spec.Title != "" {
		fmt.Fprintf(w, ": %s", r.Spec.Title)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	return nil
}

// emitCSV renders the grid as RFC 4180 CSV.
func emitCSV(w io.Writer, r *Result) error {
	cw := csv.NewWriter(w)
	header, rows := grid(r)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Row is the machine-readable wire form of one executed cell, shared
// by the json and ndjson emitters and the serving layer's incremental
// result stream.
type Row struct {
	Index  int                `json:"index"`
	Coord  map[string]string  `json:"coord"`
	Values map[string]float64 `json:"values"`
}

// RowOf builds the wire row of one cell result. labels must be
// spec.ProbeLabels() (passed in so streaming callers compute them
// once, not per cell).
func RowOf(s *Spec, labels []string, c CellResult) Row {
	coord := make(map[string]string, len(s.Axes))
	for i, a := range s.Axes {
		coord[a.Name] = c.Cell.Coord[i]
	}
	values := make(map[string]float64, len(c.Values))
	for i, v := range c.Values {
		if i < len(labels) {
			values[labels[i]] = v
		}
	}
	return Row{Index: c.Cell.Index, Coord: coord, Values: values}
}

// emitJSON renders the full result (spec echo plus per-cell values)
// as indented JSON.
func emitJSON(w io.Writer, r *Result) error {
	labels := r.Spec.ProbeLabels()
	cells := make([]Row, 0, len(r.Cells))
	for _, c := range r.Cells {
		cells = append(cells, RowOf(r.Spec, labels, c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Spec  *Spec `json:"spec"`
		Cells []Row `json:"cells"`
	}{r.Spec, cells})
}

// emitNDJSON renders one compact JSON row per cell — the batch twin of
// the serving layer's ?stream=1 output, so a streamed result and a
// fetched one compare line for line.
func emitNDJSON(w io.Writer, r *Result) error {
	labels := r.Spec.ProbeLabels()
	enc := json.NewEncoder(w)
	for _, c := range r.Cells {
		if err := enc.Encode(RowOf(r.Spec, labels, c)); err != nil {
			return err
		}
	}
	return nil
}
