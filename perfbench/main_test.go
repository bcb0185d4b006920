package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Tiny configurations of the three workloads: the same code paths, small
// enough that each run takes a second or two. The floors are 0 because two
// rounds do not train a model.
var (
	smokePaper  = simSpec{clients: 10, rounds: 2, rule: simPaper.rule, attack: simPaper.attack, attackParam: simPaper.attackParam}
	smokeRobust = simSpec{clients: 10, rounds: 2, rule: simRobust.rule, attack: simRobust.attack, codec: simRobust.codec}
	smokeServe  = serveSpec{k: 8, alpha: 0.5, lr: 0.05, dim: 64, sessions: 256, byzEvery: 5, setups: 2, warmup: 100 * time.Millisecond, segments: 2}
)

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, c := range []struct {
		name string
		run  func(traced bool) *report
		// busy is a per-layer metric the workload must exercise.
		busy string
	}{
		{"sim-paper", func(tr bool) *report { return runSim(smokePaper, 3, time.Millisecond, tr) }, "nn.local_ms_per_round"},
		{"sim-robust", func(tr bool) *report { return runSim(smokeRobust, 3, time.Millisecond, tr) }, "codec.encode_ms_per_round"},
		{"serve-async", func(tr bool) *report { return runServe(smokeServe, 3, time.Second, tr) }, "transport.update_handler_ms_p50"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep := c.run(traced)
				if len(rep.failures) > 0 {
					t.Fatalf("traced=%v: checks failed: %v", traced, rep.failures)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d", traced, rep.attempted, rep.failed)
				}
				if !traced {
					for name, m := range rep.result(endToEnd).Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					continue
				}
				if v := rep.result(perLayer).Metrics[c.busy].Value; !(v > 0) {
					t.Errorf("traced run: %s = %v, want > 0", c.busy, v)
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-paper", "--trace", "2"},
		{"--workload", "sim-paper", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that the metrics BENCHMARK.json
// declares are exactly the ones the program reports, with the same units,
// and that it names every workload.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}
