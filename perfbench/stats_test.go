package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSummarizeReportsCountAndSupportedTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 500..1, unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 500 || d.P50 != 250 || d.P99 != 495 {
		t.Fatalf("summarize = %+v, want N=500 P50=250 P99=495", d)
	}
	// 500 samples support p98 (ten above it), not p99 (five above it).
	if d.TailQ != 98 || d.Tail != 490 {
		t.Fatalf("tail = p%v:%v, want p98:490", d.TailQ, d.Tail)
	}
	if b := d.beyond(99); b != 5 {
		t.Fatalf("beyond(99) = %d, want 5", b)
	}
	if b := d.beyond(d.TailQ); b != 10 {
		t.Fatalf("beyond(p%v) = %d, want 10", d.TailQ, b)
	}
	s := d.String()
	for _, want := range []string{"n=500", "p99=495.000 (5 beyond)", "p98.00=490.000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	if d := summarize(nil); d.N != 0 || d.TailQ != 0 {
		t.Fatalf("empty sample: %+v", d)
	}
	d := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if d.TailQ != 0 {
		t.Fatalf("ten samples cannot have ten beyond any percentile, got p%v", d.TailQ)
	}
	if d.P50 != 5 || d.P99 != 10 {
		t.Fatalf("summarize = %+v, want P50=5 P99=10", d)
	}
	if d := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); d.Tail != 1 {
		t.Fatalf("eleven samples: tail = %v, want the minimum", d.Tail)
	}
}

func TestScaled(t *testing.T) {
	cpu := 30 * time.Millisecond
	if got := scaled(cpu, refNominal); math.Abs(got-30) > 1e-9 {
		t.Errorf("scaled at the nominal reference speed = %v ms, want 30", got)
	}
	// A host twice as slow doubles both the work's and the kernel's CPU
	// time; the scaled figure stays put.
	if got := scaled(2*cpu, 2*refNominal); math.Abs(got-30) > 1e-9 {
		t.Errorf("scaled on a host twice as slow = %v ms, want 30", got)
	}
	if ref := refCPU(); ref <= 0 {
		t.Errorf("refCPU() = %v, want > 0", ref)
	}
}
