package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/signguard/signguard/internal/attack"
	"github.com/signguard/signguard/internal/codec"
	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/experiments"
	"github.com/signguard/signguard/internal/fl"
)

// simSpec is one simulation workload: the paper's standard-scale cell
// (experiments.DefaultParams(ScaleStandard), the mnist dataset/model pair)
// with the cohort, rounds, rule, attack and codec overridden.
type simSpec struct {
	clients, rounds int
	rule            string
	attack          string
	attackParam     float64
	// codec is a codec registry name; "" leaves the engine's default
	// (identity) in place, so a change to that default reaches the run.
	codec string
	// accFloor is the lowest acceptable final test accuracy (%). It sits
	// above chance (10%) and below the accuracy of every seed measured
	// (seeds 0-120 for sim-robust, lowest 24%; seeds 0-40 for
	// sim-paper, lowest 98.5%), so it catches a broken pipeline, not an
	// unlucky seed.
	accFloor float64
}

var (
	// simPaper is the paper's default round: n=50, 20% Byzantine running
	// LIE against SignGuard, every other stage at the engine default.
	simPaper = simSpec{clients: 50, rounds: 200, rule: "SignGuard", attack: "LIE", attackParam: 0.3, accFloor: 90}
	// simRobust is a Table-I-style heavy cell under compression: n=100,
	// 20% Byzantine running Min-Max against Bulyan, topk at k=d/10.
	simRobust = simSpec{clients: 100, rounds: 20, rule: "Bulyan", attack: "Min-Max", codec: codec.TopK, accFloor: 15}
)

// params returns the simulation parameters for a seed and round count.
func (w simSpec) params(seed int64, rounds int) experiments.Params {
	p := experiments.DefaultParams(experiments.ScaleStandard)
	p.Clients, p.Rounds, p.Seed = w.clients, rounds, seed
	return p
}

// config assembles the fl.Config of one repetition the way the campaign
// engine assembles a cell: the same seed offsets for rule and attack, the
// paper's momentum and weight decay, and no pipeline override but the
// codec.
func (w simSpec) config(ds experiments.DatasetSpec, p experiments.Params, dataset *data.Dataset) (fl.Config, error) {
	rule, err := defense.Builtin().Build(w.rule, defense.Params{N: p.Clients, F: p.NumByz(), Seed: p.Seed + 11})
	if err != nil {
		return fl.Config{}, err
	}
	spec, err := attack.SpecByName(w.attack)
	if err != nil {
		return fl.Config{}, err
	}
	att, err := spec.New(w.attackParam, p.Seed+13)
	if err != nil {
		return fl.Config{}, err
	}
	var pipe fl.Pipeline
	if w.codec != "" {
		if pipe.Codec, err = codec.Builtin().Build(w.codec, codec.Params{}); err != nil {
			return fl.Config{}, err
		}
	}
	return fl.Config{
		Dataset: dataset, NewModel: ds.NewModel, Rule: rule, Attack: att, Pipeline: pipe,
		Clients: p.Clients, NumByz: p.NumByz(), Rounds: p.Rounds, BatchSize: p.BatchSize,
		LR: ds.LR, Momentum: 0.9, WeightDecay: 5e-4,
		EvalEvery: p.EvalEvery, EvalSamples: p.EvalSamples, Seed: p.Seed,
	}, nil
}

// outcome is what a run computed, compared field by field between
// repetitions and between traced and untraced runs.
type outcome struct {
	FinalAccuracy, BestAccuracy float64
	Diverged                    bool
	Rounds                      int
	WireBytes                   int64
	SelHonest, SelByz           int
	TotalHonest, TotalByz       int
}

func outcomeOf(r *fl.RunResult) outcome {
	o := outcome{FinalAccuracy: r.FinalAccuracy, BestAccuracy: r.BestAccuracy,
		Diverged: r.Diverged, Rounds: len(r.History), WireBytes: r.WireBytes}
	for _, m := range r.History {
		if m.HasSelection {
			o.SelHonest += m.SelectedHonest
			o.SelByz += m.SelectedByz
		}
		o.TotalHonest += m.TotalHonest
		o.TotalByz += m.TotalByz
	}
	return o
}

// simRep is one measured repetition: set-up, then fl.Simulation.Run.
type simRep struct {
	load, setup, run time.Duration
	cpu              time.Duration // process CPU time during Run
	ref              time.Duration // mean reference kernel time before and after (refCPU)
	alloc            uint64        // heap bytes allocated during Run
	out              outcome
}

// rep runs one repetition of w with the given seed and round count.
// Set-up is data generation plus fl.New (with the rule, attack and codec
// built). When tr is not nil the repetition is traced into it: a throwaway
// simulation built from the same config resolves the stages, which are
// wrapped, so the trace always follows the engine's defaults.
func (w simSpec) rep(seed int64, rounds int, tr *simTrace) (*simRep, error) {
	ds, err := experiments.DatasetByKey("mnist")
	if err != nil {
		return nil, err
	}
	p := w.params(seed, rounds)
	start := time.Now()
	dataset, err := ds.Load(p.Seed+7, p.TrainSize, p.TestSize)
	if err != nil {
		return nil, err
	}
	r := &simRep{load: time.Since(start)}
	cfg, err := w.config(ds, p, dataset)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		throwaway, err := fl.New(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.Pipeline, err = tr.wrap(throwaway.Pipeline(), cfg.Rule); err != nil {
			return nil, err
		}
	}
	sim, err := fl.New(cfg)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := sim.Run()
	r.run = time.Since(t0)
	r.cpu = cpuTime() - c0
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.out = outcomeOf(res)
	return r, nil
}

// runSim measures workload w for the given budget. The first repetition
// is a short warm-up; at least three full repetitions follow. A traced run
// alternates untraced and traced repetitions, so both see the same machine
// state and the traced outputs can be checked against the untraced ones.
func runSim(w simSpec, seed int64, budget time.Duration, traced bool) *report {
	rep := newReport()
	warm := max(w.rounds/4, 1)
	if _, err := w.rep(seed, warm, nil); err != nil {
		rep.fail("warm-up: %v", err)
		return rep
	}
	rep.attempted += int64(warm)

	var tr *simTrace
	if traced {
		tr = newSimTrace()
	}
	var plain, tracedReps []*simRep
	var first *outcome
	// The reference kernel runs before the first repetition and after
	// every repetition; each repetition is scaled by the two runs around it.
	ref := refCPU()
	start := time.Now()
	// Stop once another repetition, at the mean length so far, would end
	// past the budget, so a run lasts about its budget.
	for i := 0; i < 3 || time.Since(start)*time.Duration(i+1)/time.Duration(i) <= budget; i++ {
		var repTrace *simTrace
		if i%2 == 1 {
			repTrace = tr
		}
		r, err := w.rep(seed, w.rounds, repTrace)
		rep.attempted += int64(w.rounds)
		if err != nil {
			rep.failed += int64(w.rounds)
			rep.fail("repetition %d: %v", i, err)
			return rep
		}
		next := refCPU()
		r.ref, ref = (ref+next)/2, next
		if r.out.Diverged {
			rep.failed += int64(w.rounds - r.out.Rounds)
			rep.fail("repetition %d diverged after %d rounds", i, r.out.Rounds)
		}
		if r.out.FinalAccuracy < w.accFloor {
			rep.fail("repetition %d: final accuracy %.2f%% below the %.0f%% floor", i, r.out.FinalAccuracy, w.accFloor)
		}
		if first == nil {
			first = &r.out
		} else if r.out != *first {
			rep.fail("repetition %d (traced=%v) computed %+v, repetition 0 computed %+v", i, repTrace != nil, r.out, *first)
		}
		if repTrace != nil {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
	if traced && len(tracedReps) == 0 {
		rep.fail("no traced repetition completed")
		return rep
	}

	o := *first
	rep.note("final_acc_pct", o.FinalAccuracy, "%")
	if o.TotalHonest > 0 {
		rep.note("honest_kept_pct", 100*float64(o.SelHonest)/float64(o.TotalHonest), "%")
	}
	if o.TotalByz > 0 {
		rep.note("byz_kept_pct", 100*float64(o.SelByz)/float64(o.TotalByz), "%")
	}
	rep.note("repetitions", float64(len(plain)+len(tracedReps)), "count")

	updatesPerRound := float64(o.TotalHonest+o.TotalByz) / float64(o.Rounds)
	msPerRound := func(rs []*simRep) float64 {
		return median(mapReps(rs, func(r *simRep) float64 { return ms(r.run) / float64(w.rounds) }))
	}
	roundsPerSec := median(mapReps(plain, func(r *simRep) float64 { return float64(w.rounds) / r.run.Seconds() }))
	cpuPerRound := median(mapReps(plain, func(r *simRep) float64 { return scaled(r.cpu, r.ref) / float64(w.rounds) }))
	var alloc uint64
	for _, r := range plain {
		alloc += r.alloc
	}
	allocPerRound := float64(alloc) / float64(len(plain)*w.rounds)
	rep.set("setup_s", median(mapReps(plain, func(r *simRep) float64 { return r.setup.Seconds() })))
	rep.set("scaled_cpu_ms_per_round", cpuPerRound)
	rep.set("scaled_cpu_ms_per_update", cpuPerRound/updatesPerRound)
	rep.set("alloc_mb_per_round", allocPerRound/1e6)
	rep.set("alloc_kb_per_update", allocPerRound/updatesPerRound/1e3)
	rep.set("e2e.wall_rounds_per_s", roundsPerSec)
	rep.set("e2e.wall_updates_per_s", roundsPerSec*updatesPerRound)
	rep.set("e2e.cpu_ms_per_round", median(mapReps(plain, func(r *simRep) float64 { return ms(r.cpu) / float64(w.rounds) })))
	rep.set("host.ref_ms", median(mapReps(plain, func(r *simRep) float64 { return ms(r.ref) })))
	rep.note("wall_rounds_per_s", roundsPerSec, "1/s")
	rep.note("cpu_ms_per_round", rep.metrics["e2e.cpu_ms_per_round"], "ms")
	rep.note("host.ref_ms", rep.metrics["host.ref_ms"], "ms")

	if traced {
		rep.set("data.load_s", median(mapReps(append(plain, tracedReps...), func(r *simRep) float64 { return r.load.Seconds() })))
		var wall time.Duration
		for _, r := range tracedReps {
			wall += r.run
		}
		simLayers(rep, tr, wall, len(tracedReps)*w.rounds, float64(o.WireBytes)/float64(o.Rounds))
		rep.set("trace.overhead_pct", 100*(msPerRound(tracedReps)/msPerRound(plain)-1))
	}
	return rep
}

// simLayers reports the per-layer metrics of the traced repetitions: their
// spans in tr, their total Run time wall and the rounds they ran.
func simLayers(rep *report, tr *simTrace, wall time.Duration, rounds int, wireBytesPerRound float64) {
	n := float64(rounds)
	perRoundMS := func(d time.Duration) float64 { return ms(d) / n }
	perRoundMB := func(b uint64) float64 { return float64(b) / n / 1e6 }
	rep.set("nn.local_ms_per_round", perRoundMS(tr.local.busy))
	rep.set("nn.local_alloc_mb_per_round", perRoundMB(tr.local.alloc))
	rep.set("codec.encode_ms_per_round", perRoundMS(tr.encode.busy))
	rep.set("codec.decode_ms_per_round", perRoundMS(tr.decode.busy))
	rep.set("codec.alloc_mb_per_round", perRoundMB(tr.encode.alloc+tr.decode.alloc))
	rep.set("codec.wire_kb_per_round", wireBytesPerRound/1e3)
	rep.set("attack.craft_ms_per_round", perRoundMS(tr.adversary.busy))
	rep.set("attack.craft_alloc_mb_per_round", perRoundMB(tr.adversary.alloc))
	rep.set("aggregate.defense_ms_per_round", perRoundMS(tr.defense.busy))
	rep.set("aggregate.defense_alloc_mb_per_round", perRoundMB(tr.defense.alloc))
	rep.set("nn.update_ms_per_round", perRoundMS(tr.serverApply.busy))
	staged := tr.participation.busy + tr.local.busy + tr.adversary.busy +
		tr.encode.busy + tr.decode.busy + tr.defense.busy + tr.serverApply.busy
	rep.set("fl.self_ms_per_round", perRoundMS(wall-staged))

	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	rep.note("share.nn.local_pct", share(tr.local.busy), "%")
	rep.note("share.codec_pct", share(tr.encode.busy+tr.decode.busy), "%")
	rep.note("share.aggregate_pct", share(tr.defense.busy), "%")
	rep.note("share.attack_pct", share(tr.adversary.busy), "%")
	rep.note("share.nn.update_pct", share(tr.serverApply.busy), "%")
	rep.note("share.fl_pct", share(wall-staged), "%")
	largest := tr.local.busy > max(tr.encode.busy+tr.decode.busy, tr.defense.busy,
		tr.adversary.busy, tr.serverApply.busy, wall-staged)
	rep.purpose(fmt.Sprintf("nn.local is the largest share of round time: %v", largest))
	rep.purpose(fmt.Sprintf("attack+codec+aggregate exceed nn.local: %v",
		tr.adversary.busy+tr.encode.busy+tr.decode.busy+tr.defense.busy > tr.local.busy))
}

func mapReps(rs []*simRep, f func(*simRep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
