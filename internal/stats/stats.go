// Package stats renders simulation statistics as the paper-style tables
// and curves the experiment harness prints. The counters and latency
// histograms behind them live in internal/telemetry.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Table is a simple named-rows/named-columns table of float64 cells used to
// print figure data in the same layout as the paper.
type Table struct {
	Title string
	Cols  []string
	rows  []string
	cells map[string]map[string]float64
}

// NewTable creates a table with the given title and column order.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols, cells: make(map[string]map[string]float64)}
}

// Set stores a cell, creating the row on first use (rows keep insertion order).
func (t *Table) Set(row, col string, v float64) {
	m, ok := t.cells[row]
	if !ok {
		m = make(map[string]float64)
		t.cells[row] = m
		t.rows = append(t.rows, row)
	}
	m[col] = v
}

// Get returns a cell value and whether it was set.
func (t *Table) Get(row, col string) (float64, bool) {
	m, ok := t.cells[row]
	if !ok {
		return 0, false
	}
	v, ok := m[col]
	return v, ok
}

// Rows returns the row labels in insertion order.
func (t *Table) Rows() []string { return append([]string(nil), t.rows...) }

// ColGeoMean returns the geometric mean over all set cells in the column,
// summing their logs in row order. Non-positive cells are skipped.
func (t *Table) ColGeoMean(col string) float64 {
	var sum float64
	n := 0
	for _, r := range t.rows {
		if v, ok := t.Get(r, col); ok && v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// String renders the table with a gmean summary row, fixed to 4 significant
// decimals, in the row/column order given. Each column is right-aligned to
// its name plus one space, and at least 14 wide.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	w := 12
	for _, r := range t.rows {
		if len(r)+2 > w {
			w = len(r) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", w, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", colWidth(c), c)
	}
	b.WriteByte('\n')
	writeRow := func(label string, get func(col string) (float64, bool)) {
		fmt.Fprintf(&b, "%-*s", w, label)
		for _, c := range t.Cols {
			if v, ok := get(c); ok {
				fmt.Fprintf(&b, "%*.4f", colWidth(c), v)
			} else {
				fmt.Fprintf(&b, "%*s", colWidth(c), "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		r := r
		writeRow(r, func(c string) (float64, bool) { return t.Get(r, c) })
	}
	if len(t.rows) > 1 {
		writeRow("gmean", func(c string) (float64, bool) {
			v := t.ColGeoMean(c)
			return v, v != 0
		})
	}
	return b.String()
}

// colWidth is the printed width of column c.
func colWidth(c string) int { return max(14, utf8.RuneCountInString(c)+1) }

// Series is an ordered (x, y) sequence used for figure-style curves.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as "name: (x,y) ..." with points in x order.
func (s *Series) String() string {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(s.X))
	for i := range s.X {
		pts[i] = pt{s.X[i], s.Y[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for _, p := range pts {
		fmt.Fprintf(&b, " (%g, %.5g)", p.x, p.y)
	}
	return b.String()
}

// tableJSON is Table's serialized form: rows stay in insertion order, cell
// maps serialize with sorted keys (encoding/json), so equal tables always
// marshal to identical bytes — the golden regression suite relies on that.
type tableJSON struct {
	Title string         `json:"title"`
	Cols  []string       `json:"cols"`
	Rows  []tableRowJSON `json:"rows"`
}

type tableRowJSON struct {
	Name  string             `json:"name"`
	Cells map[string]float64 `json:"cells"`
}

// MarshalJSON implements json.Marshaler.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Cols: t.Cols, Rows: make([]tableRowJSON, 0, len(t.rows))}
	for _, r := range t.rows {
		cells := make(map[string]float64, len(t.cells[r]))
		for c, v := range t.cells[r] {
			cells[c] = v
		}
		out.Rows = append(out.Rows, tableRowJSON{Name: r, Cells: cells})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, restoring row order.
func (t *Table) UnmarshalJSON(b []byte) error {
	var in tableJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	t.Title = in.Title
	t.Cols = in.Cols
	t.rows = nil
	t.cells = make(map[string]map[string]float64)
	for _, r := range in.Rows {
		for c, v := range r.Cells {
			t.Set(r.Name, c, v)
		}
		if len(r.Cells) == 0 {
			t.rows = append(t.rows, r.Name)
			t.cells[r.Name] = make(map[string]float64)
		}
	}
	return nil
}

// CSV renders the table as comma-separated values (header row, then one
// line per row label), for plotting outside the harness.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("name")
	for _, c := range t.Cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(r)
		for _, c := range t.Cols {
			b.WriteByte(',')
			if v, ok := t.Get(r, c); ok {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
