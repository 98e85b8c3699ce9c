package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky calls, not a property
// of the program.
const minBeyond = 10

// quantile is one reported percentile of a sample set: its value, the
// number of samples it was taken from and how many lie strictly above its
// rank, so every printed tail figure carries its own evidence.
type quantile struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.2f (n=%d, %d beyond)", 100*q.P, q.Value, q.N, q.Beyond)
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which it sorts in place. It fails unless at least minBeyond samples rank
// above the percentile, so a p99 needs n ≥ 1000.
func percentile(samples []float64, p float64) (quantile, error) {
	n := len(samples)
	if !(p > 0 && p < 1) {
		return quantile{}, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", 100*p, n, max(n-rank, 0), minBeyond)
	}
	sort.Float64s(samples)
	return quantile{P: p, Value: samples[rank-1], N: n, Beyond: n - rank}, nil
}

// median returns the middle value of vals (the mean of the two middle values
// for an even count); vals is sorted in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}

// nsToMicros converts nanosecond samples to microseconds.
func nsToMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
