package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value      float64
		beyond     int
		reportable bool
	}{
		{n: 1000, value: 990, beyond: 10, reportable: true},
		{n: 999, value: 990, beyond: 9, reportable: false},
		{n: 2000, value: 1980, beyond: 20, reportable: true},
		{n: 50, value: 50, beyond: 0, reportable: false},
	} {
		q := percentile(seq(tc.n), 0.99)
		if q.Value != tc.value || q.N != tc.n || q.Beyond != tc.beyond || q.Reportable() != tc.reportable {
			t.Errorf("p99 of 1..%d = %+v reportable=%v, want value %v, n %d, beyond %d, reportable %v",
				tc.n, q, q.Reportable(), tc.value, tc.n, tc.beyond, tc.reportable)
		}
	}
}

func TestPercentileMedianAndEmpty(t *testing.T) {
	if q := percentile(seq(9), 0.5); q.Value != 5 || q.N != 9 || q.Beyond != 4 {
		t.Errorf("p50 of 1..9 = %+v", q)
	}
	if q := percentile(nil, 0.5); !math.IsNaN(q.Value) || q.N != 0 || q.Reportable() {
		t.Errorf("p50 of nothing = %+v", q)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, Name: spanClient, Start: 0, End: 1000},
		{Trace: 1, Name: spanServer, Start: 100, End: 900},
		// Attributed: laid out from the server span's start, the last
		// one clipped at its end.
		{Trace: 1, Name: spanCompile, End: 100, Attributed: true},
		{Trace: 1, Name: spanStage2, End: 800, Attributed: true},
		{Trace: 2, Name: spanParse, Start: 5, End: 25},
	}
	st := selfTimes(spans)
	for name, want := range map[uint8][2]int64{
		spanClient:  {1000, 200},
		spanServer:  {800, 0},
		spanCompile: {100, 100},
		spanStage2:  {800, 800},
		spanParse:   {20, 20},
	} {
		if got := st[name]; int64(got.Total) != want[0] || int64(got.Self) != want[1] || got.Spans != 1 {
			t.Errorf("%s: total %d self %d spans %d, want total %d self %d", spanNames[name], got.Total, got.Self, got.Spans, want[0], want[1])
		}
	}
	if n := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}}); n != 25 {
		t.Errorf("covered = %d, want 25", n)
	}
}

func TestBlockPercentileIsMedianOfBlocks(t *testing.T) {
	// Three blocks of 1000; the middle one holds a stall that lifts its
	// p99 but not the median over blocks.
	var xs []float64
	for b := 0; b < 3; b++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if b == 1 && i > 980 {
				v = 1e6
			}
			xs = append(xs, v)
		}
	}
	q, blocks := blockPercentile(xs, 0.99)
	if blocks != 3 || q.Value != 990 || q.N != 3000 || q.Beyond != 10 || !q.Reportable() {
		t.Errorf("block p99 = %+v over %d blocks, want 990 over 3 blocks, 10 beyond", q, blocks)
	}
	q, blocks = blockPercentile(seq(999), 0.99)
	if blocks != 1 || q.Reportable() {
		t.Errorf("999 samples: %+v over %d blocks, want one block, not reportable", q, blocks)
	}
}
