package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "R7" definition); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile, at most q, that leaves at least
// ten samples beyond it: a tail reported from fewer samples is noise.
func tailQuantile(n int, q float64) float64 {
	if n <= 0 {
		return 0.5
	}
	max := 1 - 10/float64(n)
	if max < 0.5 {
		max = 0.5
	}
	if q > max {
		return max
	}
	return q
}

// windowedQuantile splits xs, in the order taken, into consecutive
// windows of size samples (a shorter remainder joins the last window),
// and returns the median of the windows' q-quantiles and the number of
// windows. A stall of the host lasting a fraction of a window raises the
// tail of the windows it hits, but not the median over windows; a slower
// program raises every window's tail.
func windowedQuantile(xs []float64, size int, q float64) (float64, int) {
	n := len(xs) / size
	if n < 1 {
		return quantile(xs, q), 1
	}
	tails := make([]float64, n)
	for i := range tails {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		tails[i] = quantile(xs[i*size:end], q)
	}
	return median(tails), n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

// timeIt runs fn and returns its wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
