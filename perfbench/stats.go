package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// dist summarizes a latency sample the way the benchmark reports every
// timing: the sample count, the median, p99, and the highest percentile
// that still has at least ten samples beyond it (a p99 of 500 samples
// rests on five values, so it is reported next to the percentile the
// sample can support).
type dist struct {
	N   int
	P50 float64
	P99 float64
	// TailQ is the highest percentile with at least ten samples above it
	// and Tail its value; TailQ is 0 when the sample has 10 values or fewer.
	TailQ float64
	Tail  float64
}

// summarize computes a dist with nearest-rank percentiles.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := sorted(xs)
	d.P50 = rank(s, 50)
	d.P99 = rank(s, 99)
	if n := len(s); n > 10 {
		// Nearest rank: index n-11 has exactly ten samples above it.
		d.TailQ = 100 * float64(n-10) / float64(n)
		d.Tail = s[n-11]
	}
	return d
}

// rank returns the nearest-rank q-th percentile of an ascending sample.
func rank(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s))/100)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// beyond returns how many samples lie above the q-th percentile.
func (d dist) beyond(q float64) int {
	return d.N - max(int(math.Ceil(q*float64(d.N)/100)), 1)
}

func (d dist) String() string {
	s := fmt.Sprintf("n=%d p50=%.3f p99=%.3f (%d beyond)", d.N, d.P50, d.P99, d.beyond(99))
	if d.TailQ > 0 {
		s += fmt.Sprintf(" p%.2f=%.3f (highest with >=10 beyond)", d.TailQ, d.Tail)
	}
	return s
}
