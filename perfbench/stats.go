package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/serve"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs; 0 when empty (a layer that did no work).
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of xs. It refuses
// a percentile with fewer than minBeyond samples beyond it: such a tail is
// a handful of outliers, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d",
			p, minBeyond, beyond, n)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// normHV is a front's hypervolume against the reference point, as a share
// of the reference box: 0 when nothing beats the reference on both axes,
// approaching 1 for a design that is free and instant.
func normHV(front dse.Space, refSeconds, refWatts float64) float64 {
	return front.Hypervolume(refSeconds, refWatts) / (refSeconds * refWatts)
}

// isHit classifies a /sweep response: a hit is a response every design
// point of which came from the server's cache.
func isHit(r *serve.SweepResponse) bool {
	return r.RequestedPoints > 0 && r.CachedPoints == r.RequestedPoints
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
