package main

import (
	"errors"
	"math/rand"
	"runtime/metrics"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/fl"
)

// span accumulates one layer's busy time and heap allocation over a run.
type span struct {
	busy  time.Duration
	alloc uint64
	calls int
}

// mark is a span's opening reading.
type mark struct {
	t     time.Time
	alloc uint64
}

// clock reads wall time and the process's cumulative heap allocation.
// runtime/metrics is read without stopping the world, unlike
// runtime.ReadMemStats, so it can bracket every codec call. Small objects
// are counted when their span is refilled, so one reading can lag by a
// span; the per-round sums the benchmark reports are megabytes. A clock is
// owned by one goroutine.
type clock struct{ sample []metrics.Sample }

func newClock() *clock {
	return &clock{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (c *clock) now() mark {
	metrics.Read(c.sample)
	return mark{t: time.Now(), alloc: c.sample[0].Value.Uint64()}
}

// add closes a span opened at m.
func (c *clock) add(s *span, m mark) {
	e := c.now()
	s.busy += e.t.Sub(m.t)
	s.alloc += e.alloc - m.alloc
	s.calls++
}

// simTrace accumulates the spans of a run's traced repetitions: one per
// pipeline stage, with the codec stage split into encode and decode.
// The engine calls every stage from its own goroutine, so the stages never
// overlap and the process-wide allocation delta of a call is the stage's.
type simTrace struct {
	clk                                  *clock
	participation, local, adversary      span
	encode, decode, defense, serverApply span
}

func newSimTrace() *simTrace { return &simTrace{clk: newClock()} }

// errServerLearner refuses to trace a rule that learns on the server:
// fl provisions the root dataset only when the Defense stage is the
// engine's own RuleDefense, so wrapping it would silently turn FLTrust
// into a rule without its reference gradient.
var errServerLearner = errors.New("perfbench: cannot trace a server-learning rule (wrapping its Defense stage would drop the root gradient)")

// wrap returns the resolved pipeline p with every stage wrapped in a span.
// p must come from Simulation.Pipeline of a simulation built from the
// same config, so that whatever the engine resolves by default is what
// gets traced; rule is that config's Rule.
func (t *simTrace) wrap(p fl.Pipeline, rule aggregate.Rule) (fl.Pipeline, error) {
	if _, ok := aggregate.Unwrap(rule).(aggregate.ServerLearner); ok {
		return fl.Pipeline{}, errServerLearner
	}
	return fl.Pipeline{
		Participation: tracedParticipation{p.Participation, t},
		Local:         tracedLocal{p.Local, t},
		Adversary:     tracedAdversary{p.Adversary, t},
		Codec:         tracedCodec{p.Codec, t},
		Defense:       tracedDefense{p.Defense, t},
		Update:        tracedUpdate{p.Update, t},
	}, nil
}

type tracedParticipation struct {
	fl.Participation
	t *simTrace
}

func (w tracedParticipation) Select(rng *rand.Rand, round, clients int) ([]int, error) {
	defer w.t.clk.add(&w.t.participation, w.t.clk.now())
	return w.Participation.Select(rng, round, clients)
}

type tracedLocal struct {
	fl.LocalCompute
	t *simTrace
}

func (w tracedLocal) Compute(env *fl.LocalEnv, participants []*fl.Client) ([]fl.ClientGrad, error) {
	defer w.t.clk.add(&w.t.local, w.t.clk.now())
	return w.LocalCompute.Compute(env, participants)
}

// tracedAdversary forwards Name and NeedsHistory through the embedded
// Adversary, so an adaptive attack keeps receiving its history.
type tracedAdversary struct {
	attack.Adversary
	t *simTrace
}

func (w tracedAdversary) Craft(ctx *attack.Context) ([][]float64, error) {
	defer w.t.clk.add(&w.t.adversary, w.t.clk.now())
	return w.Adversary.Craft(ctx)
}

type tracedCodec struct {
	codec.Codec
	t *simTrace
}

func (w tracedCodec) Encode(grad []float64, rng *rand.Rand) (codec.Encoded, error) {
	defer w.t.clk.add(&w.t.encode, w.t.clk.now())
	return w.Codec.Encode(grad, rng)
}

func (w tracedCodec) Decode(e codec.Encoded) ([]float64, error) {
	defer w.t.clk.add(&w.t.decode, w.t.clk.now())
	return w.Codec.Decode(e)
}

type tracedDefense struct {
	fl.Defense
	t *simTrace
}

func (w tracedDefense) Aggregate(round int, grads [][]float64) (*aggregate.Result, error) {
	defer w.t.clk.add(&w.t.defense, w.t.clk.now())
	return w.Defense.Aggregate(round, grads)
}

type tracedUpdate struct {
	fl.ServerUpdate
	t *simTrace
}

func (w tracedUpdate) Apply(round int, global, grad []float64) error {
	defer w.t.clk.add(&w.t.serverApply, w.t.clk.now())
	return w.ServerUpdate.Apply(round, global, grad)
}
