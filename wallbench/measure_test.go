package main

import (
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The percentile rule: the highest ladder percentile with at least ten
// samples beyond it, or none at all for a small sample.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{n: 0, wantOK: false},
		{n: 10, wantOK: false},
		{n: 19, wantOK: false}, // p50 leaves 9 beyond
		{n: 20, wantPct: 50, wantOK: true},
		{n: 99, wantPct: 50, wantOK: true}, // p90 leaves 9 beyond
		{n: 100, wantPct: 90, wantOK: true},
		{n: 999, wantPct: 90, wantOK: true},
		{n: 1000, wantPct: 99, wantOK: true},
		{n: 9999, wantPct: 99, wantOK: true},
		{n: 10000, wantPct: 99.9, wantOK: true},
	} {
		xs := ramp(tc.n)
		pct, v, ok := tailPercentile(xs)
		if ok != tc.wantOK || pct != tc.wantPct {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", tc.n, pct, ok, tc.wantPct, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %v has only %d samples beyond it", tc.n, pct, v, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ramp(100)
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0, 1, 99},
	} {
		v, beyond := quantile(xs, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%g: got %v (%d beyond), want %v (%d beyond)", tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if got := quantileOrMax(ramp(50), 99); got != 50 {
		t.Errorf("quantileOrMax on 50 samples: got %v, want the max 50", got)
	}
	if got := quantileOrMax(ramp(1000), 99); got != 990 {
		t.Errorf("quantileOrMax on 1000 samples: got %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median: got %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median: got %v", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median: got %v", got)
	}
}

func TestMeterCountsAllocations(t *testing.T) {
	m := startMeter()
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	c := m.stop()
	if c.AllocBytes < 64*64<<10 {
		t.Errorf("meter saw %d bytes allocated, want at least %d", c.AllocBytes, 64*64<<10)
	}
	if c.PeakLive == 0 {
		t.Errorf("meter saw no live heap")
	}
	_ = keep
}
