package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableSetGet(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Set("r1", "a", 1.5)
	if v, ok := tb.Get("r1", "a"); !ok || v != 1.5 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := tb.Get("r1", "b"); ok {
		t.Fatal("unset cell reported present")
	}
	if _, ok := tb.Get("nope", "a"); ok {
		t.Fatal("missing row reported present")
	}
}

func TestTableRowOrder(t *testing.T) {
	tb := NewTable("t", "c")
	tb.Set("z", "c", 1)
	tb.Set("a", "c", 2)
	tb.Set("z", "c", 3) // overwrite must not duplicate the row
	rows := tb.Rows()
	if len(rows) != 2 || rows[0] != "z" || rows[1] != "a" {
		t.Fatalf("Rows = %v, want [z a] in insertion order", rows)
	}
}

func TestTableMeans(t *testing.T) {
	tb := NewTable("t", "c")
	tb.Set("r1", "c", 2)
	tb.Set("r2", "c", 8)
	if g := tb.ColGeoMean("c"); math.Abs(g-4) > 1e-9 {
		t.Fatalf("ColGeoMean = %v, want 4", g)
	}
}

func TestTableStringContainsGmean(t *testing.T) {
	tb := NewTable("fig", "x")
	tb.Set("r1", "x", 2)
	tb.Set("r2", "x", 8)
	s := tb.String()
	if !strings.Contains(s, "gmean") || !strings.Contains(s, "fig") {
		t.Fatalf("table render missing pieces:\n%s", s)
	}
}

// TestTableStringWideColumns: a column name of 14 or more characters
// widens its column, so the header keeps a space before every name and the
// cells stay right-aligned under it.
func TestTableStringWideColumns(t *testing.T) {
	tb := NewTable("fig", "slowdown-1ch", "slowdown-2ch", "accessORAM/miss")
	tb.Set("milc", "slowdown-1ch", 1.5)
	tb.Set("milc", "accessORAM/miss", 12.25)
	want := "== fig ==\n" +
		"              slowdown-1ch  slowdown-2ch accessORAM/miss\n" +
		"milc                1.5000             -         12.2500\n"
	if got := tb.String(); got != want {
		t.Fatalf("table render:\n%s\nwant:\n%s", got, want)
	}
}

func TestSeriesStringSorted(t *testing.T) {
	var s Series
	s.Name = "curve"
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	str := s.String()
	if !strings.Contains(str, "(1, 10) (2, 20) (3, 30)") {
		t.Fatalf("series not sorted by x: %s", str)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Set("r1", "a", 1.5)
	tb.Set("r2", "b", 2)
	csv := tb.CSV()
	want := "name,a,b\nr1,1.5,\nr2,,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
