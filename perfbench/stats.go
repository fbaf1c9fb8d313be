package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is noise.
const minBeyond = 10

// quantile is one reported percentile with the counts that qualify it.
type quantile struct {
	Value  float64
	N      int // samples
	Beyond int // samples strictly above Value's rank
}

// Reportable applies the at-least-ten-samples-beyond rule.
func (q quantile) Reportable() bool { return q.N > 0 && q.Beyond >= minBeyond }

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Value: xs[rank-1], N: n, Beyond: n - rank}
}

// blockSamples is the fewest samples a latency block holds: enough
// that its p99 has minBeyond samples beyond it.
const blockSamples = 100 * minBeyond

// blockPercentile splits xs, in completion order, into consecutive
// blocks of at least blockSamples samples and returns the median over
// the blocks of each block's q-quantile: a tail percentile that one
// stall of the host cannot move. N counts every sample and Beyond is the
// fewest beyond the quantile in any block. Fewer than blockSamples
// samples make one block, which is then not Reportable at p99.
func blockPercentile(xs []float64, q float64) (quantile, int) {
	blocks := max(len(xs)/blockSamples, 1)
	vals := make([]float64, 0, blocks)
	out := quantile{N: len(xs), Beyond: len(xs)}
	for b := 0; b < blocks; b++ {
		blk := append([]float64(nil), xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks]...)
		bq := percentile(blk, q)
		vals = append(vals, bq.Value)
		out.Beyond = min(out.Beyond, bq.Beyond)
	}
	out.Value = median(vals)
	return out, blocks
}

// median of xs (sorted in place); the mean of the middle two when even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
