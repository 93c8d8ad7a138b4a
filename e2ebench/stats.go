package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest value with at least p% of the samples at or
// below it, i.e. sorted[ceil(p/100*n)-1]. It sorts a copy and returns 0
// for no samples.
func percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[nearestRank(n, p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps p/100*n that is an integer in exact arithmetic
	// (90/100*100) from rounding up through float error.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles is the ladder of percentiles a timing may be reported
// at, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestTail returns the highest percentile of the ladder that still has
// at least minBeyond samples ranked above it out of n, or 0 when even the
// median has fewer. With 100 samples that is p90 (10 beyond); p99 needs
// 1000.
func highestTail(n, minBeyond int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// failedFrac is the share of attempted jobs that failed: transport
// errors, non-OK statuses, busy rejections and detection mismatches all
// count. It is 0 for no attempts.
func failedFrac(transport, nonOK, busy, mismatched, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(transport+nonOK+busy+mismatched) / float64(attempted)
}

// perCPI normalises a total measured over jobs of cpisPerJob CPIs each to
// a per-CPI figure. It is 0 when no job ran.
func perCPI(total float64, jobs, cpisPerJob int) float64 {
	if jobs <= 0 || cpisPerJob <= 0 {
		return 0
	}
	return total / float64(jobs*cpisPerJob)
}

// median is the 50th nearest-rank percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
