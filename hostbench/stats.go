package main

import (
	"math"
	"sort"
	"time"
)

// minCollectSamples is the fewest Collect latencies a run reports
// percentiles from: at 100, p90 still has ten samples above it.
const minCollectSamples = 100

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the Harrell-Davis estimate of the q-quantile (0 < q < 1)
// of ds: a mean of every order statistic, weighted by the probability
// that the q-quantile of a Beta(q(n+1), (1-q)(n+1)) falls in its rank's
// slot. A run's Collect latencies are a mixture of one cluster per grid
// cell, and a quantile can fall in the gap between two clusters, where a
// single order statistic swings from run to run; the weighted mean does
// not.
func percentile(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var sum, prev float64
	for i, d := range s {
		cdf := betaInc(a, b, float64(i+1)/n)
		sum += (cdf - prev) * float64(d)
		prev = cdf
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// collectPercentiles returns the p50 and p90 Collect latency in ms, and
// false when there are too few samples to report them.
func collectPercentiles(lat []time.Duration) (p50, p90 float64, ok bool) {
	if len(lat) < minCollectSamples {
		return 0, 0, false
	}
	const ms = float64(time.Millisecond)
	return percentile(lat, 0.5) / ms, percentile(lat, 0.9) / ms, true
}
