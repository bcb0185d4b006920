package defense_test

import (
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/conformance"
	"github.com/signguard/signguard/internal/defense"
)

// TestDefenseConformance runs the registry-wide contract over every builtin
// defense: byte-identical aggregation for any worker count, finite-or-error
// behavior on hostile buffers, untouched input gradients, and
// CLI-compatible hyperparameter declarations with undeclared names
// rejected.
func TestDefenseConformance(t *testing.T) {
	reg := defense.Builtin()
	for _, name := range reg.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := conformance.CheckDefenseWorkerDeterminism(reg, name, 11); err != nil {
				t.Errorf("worker determinism: %v", err)
			}
			if err := conformance.CheckDefenseHostileInputs(reg, name, 13); err != nil {
				t.Errorf("hostile inputs: %v", err)
			}
			if err := conformance.CheckDefenseInputsUnchanged(reg, name, 17); err != nil {
				t.Errorf("input immutability: %v", err)
			}
			if err := conformance.CheckDefenseHyperDeclaration(reg, name); err != nil {
				t.Errorf("hyper declaration: %v", err)
			}
		})
	}
}

// workerLeaky violates the determinism contract on purpose: its aggregate
// depends on the worker count.
type workerLeaky struct{ workers int }

func (r *workerLeaky) Name() string     { return "Leaky" }
func (r *workerLeaky) SetWorkers(n int) { r.workers = n }

func (r *workerLeaky) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	g := make([]float64, len(grads[0]))
	g[0] = float64(r.workers)
	return &aggregate.Result{Gradient: g}, nil
}

// TestConformanceCatchesWorkerNondeterminism is the test of the test: a
// rule whose output leaks its worker count must fail the determinism check.
func TestConformanceCatchesWorkerNondeterminism(t *testing.T) {
	reg := defense.NewRegistry()
	if err := reg.Register(defense.Spec{Name: "Leaky", Build: func(defense.Params) (aggregate.Rule, error) {
		return &workerLeaky{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	err := conformance.CheckDefenseWorkerDeterminism(reg, "Leaky", 11)
	if err == nil {
		t.Fatal("worker-dependent rule passed the determinism check")
	}
	if !strings.Contains(err.Error(), "workers") {
		t.Errorf("unhelpful determinism error: %v", err)
	}
}

// inPlaceMean violates the read-only contract on purpose: it accumulates
// the mean into the first submitted gradient.
type inPlaceMean struct{}

func (inPlaceMean) Name() string { return "InPlace" }

func (inPlaceMean) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	acc := grads[0]
	for _, g := range grads[1:] {
		for j, v := range g {
			acc[j] += v
		}
	}
	for j := range acc {
		acc[j] /= float64(len(grads))
	}
	return &aggregate.Result{Gradient: acc}, nil
}

// TestConformanceCatchesInputMutation is the test of the test: a rule that
// aggregates in place over its inputs must fail the immutability check.
func TestConformanceCatchesInputMutation(t *testing.T) {
	reg := defense.NewRegistry()
	if err := reg.Register(defense.Spec{Name: "InPlace", Build: func(defense.Params) (aggregate.Rule, error) {
		return inPlaceMean{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	err := conformance.CheckDefenseInputsUnchanged(reg, "InPlace", 17)
	if err == nil {
		t.Fatal("in-place rule passed the immutability check")
	}
	if !strings.Contains(err.Error(), "rewrote submitted gradient 0") {
		t.Errorf("unhelpful immutability error: %v", err)
	}
}

// TestConformanceCatchesHyperViolations is the test of the test: a declared
// hyperparameter name that cannot survive the CLI's key=value,key=value
// syntax must fail the declaration check.
func TestConformanceCatchesHyperViolations(t *testing.T) {
	mean := func(defense.Params) (aggregate.Rule, error) { return aggregate.NewMean(), nil }
	for _, bad := range []string{"no=equals", "no,commas", ""} {
		reg := defense.NewRegistry()
		if err := reg.Register(defense.Spec{Name: "Bad", Hyper: []string{bad}, Build: mean}); err != nil {
			t.Fatal(err)
		}
		if err := conformance.CheckDefenseHyperDeclaration(reg, "Bad"); err == nil {
			t.Errorf("hyper name %q passed the declaration check", bad)
		}
	}
}
