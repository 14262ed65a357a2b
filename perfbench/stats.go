package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q < 1) of xs, which
// it sorts in place. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n from rounding up past an exact integer (0.9·100 is
// 90.00000000000001 in floating point).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailSupported reports whether the q-quantile of n samples has at least
// ten samples beyond it; a tail percentile is reported only then.
func tailSupported(n int, q float64) bool {
	return n-rank(n, q) >= 10
}

// median is the median of xs, the mean of the two middle values when
// their number is even, so that two rounds report their mean rather than
// the faster one. xs is left unsorted; NaN when it is empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// growingBacklog reports whether queueing grew over one open-loop step.
// waits are the times requests spent queued for a free connection, in the
// order they were due (the generator's own lateness is reported apart, as
// loadgen.late_ms). Below saturation the wait is stationary; above it,
// every request waits for all earlier ones, so the wait climbs through
// the step. The step's backlog grows when the median wait of its last
// quarter exceeds twice that of its first quarter by more than slack,
// which absorbs scheduler noise on waits that are near zero.
func growingBacklog(waits []float64, slack float64) bool {
	q := len(waits) / 4
	if q == 0 {
		return false
	}
	first := median(waits[:q])
	last := median(waits[len(waits)-q:])
	return last > 2*first+slack
}

// stepMeets reports whether one open-loop step meets the latency limit:
// its p99 (a failed or refused request counts as +Inf, so it misses the
// limit) is within limit, the p99 is supported by at least ten samples,
// and its backlog did not grow.
func stepMeets(latencies, waits []float64, limit float64) bool {
	if !tailSupported(len(latencies), 0.99) {
		return false
	}
	p99 := quantile(append([]float64(nil), latencies...), 0.99)
	return p99 <= limit && !growingBacklog(waits, limit/10)
}
