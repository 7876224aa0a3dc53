package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("RMSE identical = %g, want 0", got)
	}
	if got := RMSE([]float64{1, 3}, []float64{2, 2}); got != 1 {
		t.Fatalf("RMSE = %g, want 1", got)
	}
	if got := RMSE([]float64{0}, []float64{2}); got != 2 {
		t.Fatalf("RMSE = %g, want 2", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) {
		t.Fatal("RMSE(empty) not NaN")
	}
}

func TestRMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RMSE length mismatch did not panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(empty) not NaN")
	}
}

func TestMeanIgnoringNaN(t *testing.T) {
	if got := MeanIgnoringNaN([]float64{1, math.NaN(), 3}); got != 2 {
		t.Fatalf("MeanIgnoringNaN = %g", got)
	}
	if got := MeanIgnoringNaN([]float64{math.Inf(1), 4}); got != 4 {
		t.Fatalf("MeanIgnoringNaN with Inf = %g", got)
	}
	if !math.IsNaN(MeanIgnoringNaN([]float64{math.NaN()})) {
		t.Fatal("all-NaN input should yield NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.05, 0.15, 0.95, 1.0, -0.2, 1.7}, 10)
	if h[0] != 3 { // 0, 0.05 and clamped -0.2
		t.Fatalf("bin 0 = %d, want 3", h[0])
	}
	if h[1] != 1 {
		t.Fatalf("bin 1 = %d, want 1", h[1])
	}
	if h[9] != 3 { // 0.95, 1.0 (closed top) and clamped 1.7
		t.Fatalf("bin 9 = %d, want 3", h[9])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 7 {
		t.Fatalf("histogram total = %d, want 7", total)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2")
	tb.AddRow("gamma", "0.125")
	out := tb.String()
	if !strings.Contains(out, "My Title") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "-----") {
		t.Fatal("header underline missing")
	}
	for _, want := range []string{"alpha", "beta", "gamma", "0.125", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Ragged rows are padded, not panicking.
	tb.AddRow("only-one-cell")
	_ = tb.String()
}

func TestTableEmpty(t *testing.T) {
	tb := NewTable("", "h1")
	if out := tb.String(); !strings.Contains(out, "h1") {
		t.Fatalf("header missing: %q", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.8336); got != "83.4%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(math.NaN()); got != "n/a" {
		t.Fatalf("Pct(NaN) = %q", got)
	}
	if got := Pct(0); got != "0.0%" {
		t.Fatalf("Pct(0) = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "bb"}, []float64{10, 5}, 10, "%.0f")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Fatalf("max bar not full width: %q", lines[0])
	}
	if !strings.Contains(lines[1], "#####") || strings.Contains(lines[1], "######") {
		t.Fatalf("half bar wrong: %q", lines[1])
	}
	if !strings.Contains(lines[0], "10") || !strings.Contains(lines[1], "5") {
		t.Fatal("values missing")
	}
	// NaN renders as n/a without panicking; zero width defaults.
	out = BarChart([]string{"x"}, []float64{math.NaN()}, 0, "")
	if !strings.Contains(out, "n/a") {
		t.Fatalf("NaN row = %q", out)
	}
	// All-zero values yield empty bars.
	out = BarChart([]string{"z"}, []float64{0}, 5, "%.0f")
	if strings.Contains(out, "#") {
		t.Fatalf("zero value drew a bar: %q", out)
	}
}

func TestSeries(t *testing.T) {
	out := Series("round", []int{1, 2}, [2]string{"NPP", "NSP"},
		[]float64{math.NaN(), 0.25}, []float64{0.5}, "")
	if !strings.Contains(out, "NPP") || !strings.Contains(out, "NSP") {
		t.Fatal("headers missing")
	}
	if !strings.Contains(out, "0.250") || !strings.Contains(out, "0.500") {
		t.Fatalf("values missing:\n%s", out)
	}
	// NaN and short series render as '-'.
	if strings.Count(out, "-") < 2 {
		t.Fatalf("missing placeholders:\n%s", out)
	}
}
