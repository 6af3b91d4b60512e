package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A tail is the highest of these with at least minBeyond samples
// strictly beyond it, so it never rests on a handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps rounding error (99.9/100*10000 is not exactly 9990
	// in floating point) from pushing the rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when even the median has
// fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))-1]
}

// median is the middle value of xs (mean of the two middle values for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencySummary is a median and a tail over one set of samples.
type latencySummary struct {
	n      int
	p50    float64
	tailP  float64
	tail   float64
	tailOK bool
}

func (s latencySummary) String() string {
	if !s.tailOK {
		return fmt.Sprintf("N=%d p50=%.3fms (too few samples for a tail)", s.n, s.p50)
	}
	return fmt.Sprintf("N=%d p50=%.3fms tail p%g=%.3fms", s.n, s.p50, s.tailP, s.tail)
}

func summarize(samplesMS []float64) latencySummary {
	xs := append([]float64(nil), samplesMS...)
	s := latencySummary{n: len(xs), p50: percentile(xs, 50)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.tailP, s.tail, s.tailOK = p, percentile(xs, p), true
	}
	return s
}
