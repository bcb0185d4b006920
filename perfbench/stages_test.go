package main

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/fl"
	"github.com/signguard/signguard/internal/transport"
)

// recorder implements every pipeline stage interface and records which
// methods were called on it.
type recorder struct{ called map[string]int }

func (r *recorder) hit(name string) { r.called[name]++ }

func (r *recorder) Name() string { r.hit("Name"); return "recorder" }
func (r *recorder) Select(*rand.Rand, int, int) ([]int, error) {
	r.hit("Select")
	return nil, nil
}
func (r *recorder) Compute(*fl.LocalEnv, []*fl.Client) ([]fl.ClientGrad, error) {
	r.hit("Compute")
	return nil, nil
}
func (r *recorder) Craft(*attack.Context) ([][]float64, error) { r.hit("Craft"); return nil, nil }
func (r *recorder) NeedsHistory() bool                         { r.hit("NeedsHistory"); return true }
func (r *recorder) Encode([]float64, *rand.Rand) (codec.Encoded, error) {
	r.hit("Encode")
	return codec.Encoded{}, nil
}
func (r *recorder) Decode(codec.Encoded) ([]float64, error) { r.hit("Decode"); return nil, nil }
func (r *recorder) Aggregate(int, [][]float64) (*aggregate.Result, error) {
	r.hit("Aggregate")
	return nil, nil
}
func (r *recorder) Apply(int, []float64, []float64) error { r.hit("Apply"); return nil }

// TestStageWrappersForwardEveryMethod calls every method of every stage
// interface of fl.Pipeline through the traced pipeline, and checks that
// each call reached the wrapped stage exactly once.
func TestStageWrappersForwardEveryMethod(t *testing.T) {
	rec := &recorder{called: map[string]int{}}
	in := fl.Pipeline{Participation: rec, Local: rec, Adversary: rec, Codec: rec, Defense: rec, Update: rec}
	tr := newSimTrace()
	out, err := tr.wrap(in, aggregate.NewMean())
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(out)
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		stage := v.Field(i)
		if stage.IsNil() || stage.Elem().Interface() == any(rec) {
			t.Fatalf("stage %s is not wrapped", field.Name)
		}
		for m := 0; m < field.Type.NumMethod(); m++ {
			name := field.Type.Method(m).Name
			method := stage.MethodByName(name)
			args := make([]reflect.Value, method.Type().NumIn())
			for a := range args {
				args[a] = reflect.Zero(method.Type().In(a))
			}
			before := rec.called[name]
			method.Call(args)
			if rec.called[name] != before+1 {
				t.Errorf("%s.%s was not forwarded", field.Name, name)
			}
		}
	}
	if !out.Adversary.NeedsHistory() {
		t.Error("NeedsHistory result not forwarded")
	}
	for name, s := range map[string]span{
		"participation": tr.participation, "local": tr.local, "adversary": tr.adversary,
		"encode": tr.encode, "decode": tr.decode, "defense": tr.defense, "update": tr.serverApply,
	} {
		if s.calls != 1 {
			t.Errorf("span %s recorded %d calls, want 1", name, s.calls)
		}
	}
}

func TestTraceRefusesServerLearner(t *testing.T) {
	rule, err := defense.Builtin().Build("FLTrust", defense.Params{N: 10, F: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSimTrace().wrap(fl.Pipeline{}, rule); !errors.Is(err, errServerLearner) {
		t.Fatalf("wrap(FLTrust) error = %v, want errServerLearner", err)
	}
}

// ruleRecorder is an aggregate.Rule that counts its calls.
type ruleRecorder struct{ names, aggregates int }

func (r *ruleRecorder) Name() string { r.names++; return "rule" }
func (r *ruleRecorder) Aggregate([][]float64) (*aggregate.Result, error) {
	r.aggregates++
	return &aggregate.Result{}, nil
}

// TestServeWrappersForward checks the serving trace's rule and handler
// wrappers: both forward every call, and record only while tracing is on.
func TestServeWrappersForward(t *testing.T) {
	tr := &serveTrace{}
	rec := &ruleRecorder{}
	var rule aggregate.Rule = tracedRule{rec, tr}
	h := tr.handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("0123456789"))
	}))
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		if rule.Name() != "rule" {
			t.Fatal("Name not forwarded")
		}
		if res, err := rule.Aggregate(nil); res == nil || err != nil {
			t.Fatalf("Aggregate = %v, %v", res, err)
		}
		for _, path := range []string{transport.AsyncPathModel, transport.AsyncPathUpdate} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader("abc")))
			if w.Body.String() != "0123456789" {
				t.Fatalf("handler body %q not forwarded", w.Body.String())
			}
		}
	}
	if rec.names != 2 || rec.aggregates != 2 {
		t.Fatalf("rule saw %d Name and %d Aggregate calls, want 2 each", rec.names, rec.aggregates)
	}
	if tr.defenseSteps != 1 || len(tr.modelMS) != 1 || len(tr.updateMS) != 1 {
		t.Fatalf("trace recorded %d steps, %d fetches, %d updates, want 1 each (tracing on once)",
			tr.defenseSteps, len(tr.modelMS), len(tr.updateMS))
	}
	if tr.respBytes != 10 || tr.reqBytes != 3 {
		t.Fatalf("trace counted %d response and %d request bytes, want 10 and 3", tr.respBytes, tr.reqBytes)
	}
}
