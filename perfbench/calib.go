package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine. How
// much work a CPU-second buys there drifts by tens of percent over minutes
// with the load of other tenants (clock speed, the hyperthread sibling,
// shared caches), and CPU time drifts with it. So the gated time metrics
// are scaled by the speed of a fixed reference kernel, measured next to
// the work it scales: a measured CPU time t becomes t × refNominal / ref,
// where ref is the mean of the kernel's CPU time per goroutine measured
// just before and just after the work. The program never runs the kernel,
// so a change to the program moves the scaled figures by the same factor
// as the raw ones.

// refNominal is about the reference kernel's CPU time per goroutine on a
// quiet 2-vCPU host of the kind the benchmark was tuned on, so scaled
// times read close to raw CPU time there. It is a unit: changing it
// rescales every scaled figure by the same factor.
const refNominal = 70 * time.Millisecond

// refSink keeps the reference kernel's results alive.
var refSink [64]float64

// refStream is the array the reference kernel streams through: 16 MB,
// more than the CPU caches hold, so the passes read main memory.
var refStream = func() []float64 {
	s := make([]float64, 2<<20)
	for i := range s {
		s[i] = float64(i % 13)
	}
	return s
}()

// refCPU runs the reference kernel on one goroutine per CPU, as the
// simulations' LocalCompute runs its workers, and returns its process CPU
// time per goroutine.
func refCPU() time.Duration {
	g := runtime.GOMAXPROCS(0)
	c0 := cpuTime()
	var wg sync.WaitGroup
	for k := 0; k < g; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			refSink[k%len(refSink)] = refKernel()
		}(k)
	}
	wg.Wait()
	return (cpuTime() - c0) / time.Duration(g)
}

// refKernel does a fixed mix, in about equal parts of its time, of the
// three kinds of work the workloads do: dense float arithmetic in cache
// (the simulations' model), reads from main memory (gradients, the heap
// and the garbage collector) and float-to-text round trips (the serving
// workload's JSON). A host state that slows one kind more than the others
// then moves the kernel about as much as the mix of the workloads.
func refKernel() float64 {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.1
		b[i] = float64(i%5) * 0.2
	}
	for range 30 {
		for i := 0; i < n; i++ {
			out := c[i*n : i*n+n]
			for k := 0; k < n; k++ {
				aik, row := a[i*n+k], b[k*n:k*n+n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
	}
	sum := c[n*n-1]
	for range 12 {
		for _, v := range refStream {
			sum += v
		}
	}
	buf := make([]byte, 0, 32)
	for r := range 24 {
		for i := range 4550 {
			buf = strconv.AppendFloat(buf[:0], float64(i)*0.0137-31.3+float64(r), 'g', -1, 64)
			x, err := strconv.ParseFloat(string(buf), 64)
			if err != nil {
				panic(err)
			}
			sum += x
		}
	}
	return sum
}

// scaled converts a CPU time measured while the reference kernel took ref
// per goroutine into milliseconds at the nominal reference speed.
func scaled(cpu, ref time.Duration) float64 {
	return ms(cpu) * float64(refNominal) / float64(ref)
}

// cpuTime returns the CPU time (user + system) the process has used so
// far, across all its threads. It counts only time the threads ran, not
// time they waited for a CPU, so it grows far less than wall time when
// other work shares the machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
