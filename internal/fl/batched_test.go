package fl

import (
	"math/rand"
	"testing"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/core"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/parallel"
)

// perClientCompute is the reference oracle of the batched engine: one
// standalone LossAndGrad per participant, partitioned contiguously over
// the worker model replicas exactly like BatchedCompute. Each participant
// is visited by exactly one worker and draws from its own sampler stream,
// so its outputs are identical for any worker count.
type perClientCompute struct{}

func (perClientCompute) Name() string { return "per-client-sgd" }

func (perClientCompute) Compute(env *LocalEnv, participants []*Client) ([]ClientGrad, error) {
	outs := make([]ClientGrad, len(participants))
	workers := min(env.Workers, len(participants))
	if workers <= 1 {
		for i, c := range participants {
			outs[i] = localGradient(env, env.Replicas[0], c)
		}
		return outs, nil
	}
	parallel.For(workers, len(participants), func(w, start, end int) {
		m := env.Replicas[w]
		if err := m.SetParamVector(env.Global); err != nil {
			for i := start; i < end; i++ {
				outs[i].Err = err
			}
			return
		}
		for i := start; i < end; i++ {
			outs[i] = localGradient(env, m, participants[i])
		}
	})
	return outs, nil
}

// digestPair runs the same configuration through the per-client oracle
// and the default (batched) local stage and returns both trace digests;
// every test here asserts byte-identity through them. build must return a
// fresh Config per call — stateful defenses (SignGuard's previous-aggregate
// reference) would otherwise leak state from one run into the other.
func digestPair(t *testing.T, build func() Config) (perClient, batched string) {
	t.Helper()
	cfg := build()
	cfg.Pipeline.Local = perClientCompute{}
	perClient = traceDigest(t, cfg)
	batched = traceDigest(t, build())
	return perClient, batched
}

// TestBatchedUnequalMinibatches: BatchSize 7 over 40-example client
// partitions forces epoch-boundary tail batches of 5, so stacked segments
// have unequal sizes. De-interleaving must still be byte-identical.
func TestBatchedUnequalMinibatches(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.BatchSize = 7
		cfg.Rounds = 14 // crosses each client's 40-example epoch twice
		cfg.Workers = 3
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("unequal minibatch sizes: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedSingleClientSegments: cohorts of one client per worker (and a
// one-client simulation) exercise the single-segment stacked batch.
func TestBatchedSingleClientSegments(t *testing.T) {
	perWorker := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 3
		cfg.Workers = 3 // one client per worker: every stacked batch has one segment
		return cfg
	}
	if r, b := digestPair(t, perWorker); r != b {
		t.Errorf("one client per worker: batched trace %s, per-client %s", b, r)
	}

	solo := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 1
		cfg.Rounds = 10
		return cfg
	}
	if r, b := digestPair(t, solo); r != b {
		t.Errorf("single-client run: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedByzantineOnlyRounds: under aggressive subsampling some rounds
// select only Byzantine clients; the engine then submits their honest
// gradients unchanged (no benign statistics to mimic). The batched engine
// must reproduce that fallback byte for byte — and such rounds must
// actually occur in the run for the test to mean anything.
func TestBatchedByzantineOnlyRounds(t *testing.T) {
	build := func(workers int) Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 5
		cfg.NumByz = 4
		cfg.Attack = attack.NewLIE(0.3)
		cfg.Rule = core.NewPlain(2)
		cfg.Rounds = 20
		cfg.Pipeline.Participation = UniformSubsample{K: 2}
		cfg.Workers = workers
		return cfg
	}

	byzOnly := 0
	cfg := build(1)
	hook := func(st *RoundState) {
		allByz := true
		for _, id := range st.Participants {
			if id >= cfg.NumByz {
				allByz = false
			}
		}
		if allByz {
			byzOnly++
		}
	}
	cfg.RoundHook = func(st *RoundState) { hook(st) }
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if byzOnly == 0 {
		t.Fatal("no Byzantine-only round occurred; adjust K/seed so the fallback is exercised")
	}

	for _, workers := range []int{1, 2, 7} {
		if r, b := digestPair(t, func() Config { return build(workers) }); r != b {
			t.Errorf("Byzantine-only rounds, workers=%d: batched trace %s, per-client %s", workers, b, r)
		}
	}
}

// TestBatchedTextModelEquivalence: the text RNN batches through the
// time-major stacked kernel; its per-segment de-interleaving must be
// byte-identical to the per-client path (variable-length sequences and
// all).
func TestBatchedTextModelEquivalence(t *testing.T) {
	ds, err := data.AGNewsLike(3, 300, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		build := func() Config {
			return Config{
				Dataset: ds,
				NewModel: func(rng *rand.Rand) (nn.Classifier, error) {
					return nn.NewTextRNN(rng, 128, 8, 12, 4), nil
				},
				Rule:    core.NewPlain(5),
				Attack:  attack.NewLIE(0.3),
				Clients: 6, NumByz: 2, Rounds: 4, BatchSize: 8,
				LR: 0.1, Momentum: 0.9, WeightDecay: 5e-4,
				EvalEvery: 4, EvalSamples: 30, Seed: 5, Workers: workers,
			}
		}
		if r, b := digestPair(t, build); r != b {
			t.Errorf("text batched, workers=%d: batched trace %s, per-client %s", workers, b, r)
		}
	}
}

// TestBatchedWorkerSurplus: more workers than participants must clamp to
// the cohort size and stay byte-identical (each worker then handles at
// most one client, so every stacked tile is a single segment).
func TestBatchedWorkerSurplus(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.Clients = 3
		cfg.Workers = 7 // > clients: clamp, one client per active worker
		cfg.Rounds = 10
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("worker surplus: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedOneRowTiles: BatchSize 1 makes every client segment a single
// row, the smallest possible tile slices through the arena-backed kernels.
func TestBatchedOneRowTiles(t *testing.T) {
	build := func() Config {
		cfg := baseConfig(tinyDataset(t))
		cfg.BatchSize = 1
		cfg.Rounds = 6
		cfg.Workers = 2
		return cfg
	}
	if r, b := digestPair(t, build); r != b {
		t.Errorf("one-row tiles: batched trace %s, per-client %s", b, r)
	}
}

// TestBatchedStageNames pins the stage name (it appears in logs and error
// messages).
func TestBatchedStageNames(t *testing.T) {
	if n := (&BatchedCompute{}).Name(); n != "batched-sgd" {
		t.Errorf("local stage named %q", n)
	}
}
