package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zeroed")
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
}

// Property: mean is always within [min, max].
func TestSummaryInvariant(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	if len(s.X) != 2 || s.X[1] != 2 || s.Y[1] != 20 {
		t.Fatalf("series = %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"alg", "throughput"}}
	tb.AddRow("NoShare", "0.30")
	tb.AddRow("JAWS2", "0.78")
	out := tb.String()
	if !strings.Contains(out, "NoShare") || !strings.Contains(out, "JAWS2") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the separator width.
	if len(lines[0]) > len(lines[1])+2 {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

// Regression: a row wider than the header used to index past the width
// table and panic; now the extra columns render.
func TestTableRaggedRows(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1")
	tb.AddRow("1", "2", "3")
	s := tb.String()
	if !strings.Contains(s, "3") {
		t.Fatalf("extra column dropped from rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
}
