// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks what the system computed, and
// prints its metrics: the end-to-end metrics in an untraced run
// (--trace 0), the per-layer metrics in a traced run (--trace 1), where
// the benchmark's own wrappers time each layer's calls. The workload's
// inputs are generated from --seed.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every output check passed.
//
//	go run . --workload sim-paper --seed 1 --seconds 40 --trace 0
//
// README.md lists the workloads, what every metric means, and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, budget time.Duration, traced bool) *report{
	"sim-paper": func(seed int64, budget time.Duration, traced bool) *report {
		return runSim(simPaper, seed, budget, traced)
	},
	"sim-robust": func(seed int64, budget time.Duration, traced bool) *report {
		return runSim(simRobust, seed, budget, traced)
	},
	"serve-async": func(seed int64, budget time.Duration, traced bool) *report {
		return runServe(serveAsync, seed, budget, traced)
	},
}

// endToEnd and perLayer are the metrics every workload reports, with
// their units; BENCHMARK.json declares the same lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scaled_cpu_ms_per_round", "ms"},
	{"scaled_cpu_ms_per_update", "ms"},
	{"alloc_mb_per_round", "MB"},
	{"alloc_kb_per_update", "kB"},
}

var perLayer = []metricDef{
	{"e2e.wall_rounds_per_s", "1/s"},
	{"e2e.wall_updates_per_s", "1/s"},
	{"e2e.cpu_ms_per_round", "ms"},
	{"host.ref_ms", "ms"},
	{"nn.local_ms_per_round", "ms"},
	{"nn.local_alloc_mb_per_round", "MB"},
	{"nn.update_ms_per_round", "ms"},
	{"codec.encode_ms_per_round", "ms"},
	{"codec.decode_ms_per_round", "ms"},
	{"codec.alloc_mb_per_round", "MB"},
	{"codec.wire_kb_per_round", "kB"},
	{"attack.craft_ms_per_round", "ms"},
	{"attack.craft_alloc_mb_per_round", "MB"},
	{"aggregate.defense_ms_per_round", "ms"},
	{"aggregate.defense_alloc_mb_per_round", "MB"},
	{"aggregate.defense_ms_per_step", "ms"},
	{"fl.self_ms_per_round", "ms"},
	{"data.load_s", "s"},
	{"transport.update_handler_ms_p50", "ms"},
	{"transport.update_handler_ms_p99", "ms"},
	{"transport.model_handler_ms_p50", "ms"},
	{"transport.wire_submit_ms_p50", "ms"},
	{"transport.wire_fetch_ms_p50", "ms"},
	{"transport.req_kb_per_update", "kB"},
	{"transport.resp_kb_per_fetch", "kB"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.fetch_ms_p50", "ms"},
	{"serve.fetch_ms_p99", "ms"},
	{"asyncfl.steps", "count"},
	{"asyncfl.kept_ratio", "ratio"},
	{"asyncfl.mean_staleness", "versions"},
	{"asyncfl.drops", "count"},
	{"asyncfl.rejects", "count"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's checks, counts and metrics.
type report struct {
	failures          []string
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// set records a metric's value.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note records a quantity that is printed but not part of the JSON result:
// the run's model-quality readouts and the layer shares.
func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %12.4f %s", name, v, unit))
}

// dist prints a latency sample with its count and supported percentile.
func (r *report) dist(name string, d dist) {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %s", name, d))
}

// purpose records whether the trace shows the workload doing what it was
// chosen for.
func (r *report) purpose(s string) { r.notes = append(r.notes, "purpose: "+s) }

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the metrics of the run's kind; missing ones read 0 (a
// layer the workload never calls).
func (r *report) result(defs []metricDef) result {
	out := result{Correct: len(r.failures) == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sim-paper, sim-robust or serve-async")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 40, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in %v, --seconds >= 1 and --trace 0 or 1\n", names)
		return 2
	}
	traced := *trace == 1
	rep := runner(*seed, time.Duration(*seconds)*time.Second, traced)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := rep.result(defs)
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", *name, *seed, *seconds, *trace)
	for _, d := range defs {
		fmt.Printf("%-34s %12.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("%-34s %12.4f %%  (%d of %d operations)\n", "failed_pct",
		100*float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range rep.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	if !res.Correct && len(rep.failures) == 0 {
		fmt.Println("CHECK FAILED: a metric is not a finite number")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
