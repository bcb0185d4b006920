package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/signguard/signguard/internal/aggregate"
	"github.com/signguard/signguard/internal/asyncfl"
	"github.com/signguard/signguard/internal/defense"
	"github.com/signguard/signguard/internal/tensor"
	"github.com/signguard/signguard/internal/transport"
)

// serveSpec is the async serving workload: asyncfl behind
// transport.NewAsyncHandler over loopback HTTP, driven by a closed loop of
// one connection per CPU, each repeating fetch → gradient → dense submit.
type serveSpec struct {
	k     int
	alpha float64
	lr    float64
	// dim matches sim-paper's ImageCNN, so a model fetch and a submit carry
	// what a real client of that model would.
	dim int
	// sessions is the fleet of distinct session IDs the loop cycles
	// through. It is far larger than K, so no session ever has more than
	// one update queued and the per-session drop-oldest rule never fires.
	sessions int
	// byzEvery makes every byzEvery-th session Byzantine: its gradients
	// are sign-flipped and scaled ×5.
	byzEvery int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// warmup is the untimed opening part of the budget (at most half).
	warmup time.Duration
	// segments is how many equal phases the timed part of an untraced run
	// is split into; the scaled CPU metrics are medians over them.
	segments int
}

var serveAsync = serveSpec{k: 32, alpha: 0.5, lr: 0.05, dim: 4550, sessions: 4096, byzEvery: 5, setups: 101,
	warmup: 2 * time.Second, segments: 10}

// server is one running aggregator behind its HTTP handler.
type server struct {
	agg  *asyncfl.Aggregator
	srv  *http.Server
	addr string
	done chan error
}

// start builds the SignGuard rule (N=K), the aggregator and the handler,
// and starts serving on a loopback listener. tr, when non-nil, wraps the
// rule and the handler.
func (w serveSpec) start(seed int64, tr *serveTrace) (*server, error) {
	rule, err := defense.Builtin().Build("SignGuard", defense.Params{N: w.k, F: w.k / w.byzEvery, Seed: seed + 11})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		rule = tracedRule{rule, tr}
	}
	agg, err := asyncfl.New(asyncfl.Config{
		InitialParams: make([]float64, w.dim), K: w.k, Alpha: w.alpha, Rule: rule, LR: w.lr,
	})
	if err != nil {
		return nil, err
	}
	h := transport.NewAsyncHandler(agg)
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{agg: agg, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// phaseStats is what the load loop measured in one phase.
type phaseStats struct {
	traced          bool
	wall, cpu       time.Duration
	ref             time.Duration // reference kernel time around the phase (refCPU)
	accepted, steps int64
	alloc           uint64
	submitMS        []float64
	fetchMS         []float64
}

// runServe measures the serving workload for the given budget. An
// untraced run has a warm-up phase and w.segments timed phases; a traced
// run splits the timed part into alternating untraced and traced phases,
// so the tracing overhead is measured on the same server at the same time.
func runServe(w serveSpec, seed int64, budget time.Duration, traced bool) *report {
	rep := newReport()
	var tr *serveTrace
	if traced {
		tr = &serveTrace{}
	}

	setups := make([]float64, w.setups)
	var s *server
	for i := range setups {
		t0 := time.Now()
		srv, err := w.start(seed, tr)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			rep.fail("set-up: %v", err)
			return rep
		}
		if i < len(setups)-1 {
			if err := srv.close(); err != nil {
				rep.fail("closing set-up %d: %v", i, err)
				return rep
			}
		} else {
			s = srv
		}
	}

	warm := min(w.warmup, budget/2)
	phases := []phaseStats{{wall: warm}}
	for range w.segments {
		phases = append(phases, phaseStats{wall: (budget - warm) / time.Duration(w.segments)})
	}
	if traced {
		q := (budget - warm) / 4
		phases = []phaseStats{{wall: warm}, {wall: q}, {wall: q, traced: true}, {wall: q}, {wall: q, traced: true}}
	}

	optimum := tensor.RandNormal(tensor.NewRNG(seed), w.dim, 0, 1)
	attempted, failed := w.drive(s, optimum, seed, phases, tr)
	rep.attempted, rep.failed = attempted, failed
	st := s.agg.Stats()
	_, params, _ := s.agg.Model()
	history := s.agg.History()
	if err := s.close(); err != nil {
		rep.fail("closing the server: %v", err)
		return rep
	}

	// Output checks: every submit accepted and none evicted, one step per
	// K accepted updates, and a model that moved toward the optimum
	// despite the Byzantine fifth of the traffic.
	if failed > 0 {
		rep.fail("%d of %d requests failed or were refused", failed, attempted)
	}
	if st.Drops != 0 || st.Rejects != 0 {
		rep.fail("aggregator dropped %d and rejected %d updates, want 0", st.Drops, st.Rejects)
	}
	if want := st.Arrivals / int64(w.k); st.Steps != want {
		rep.fail("aggregator ran %d steps for %d accepted updates, want %d", st.Steps, st.Arrivals, want)
	}
	initial := rmsDist(make([]float64, w.dim), optimum)
	reduction := 100 * (1 - rmsDist(params, optimum)/initial)
	if !(reduction > 0) {
		rep.fail("model error reduction %.2f%%, want > 0", reduction)
	}
	rep.note("error_reduction_pct", reduction, "%")

	var plain, withTrace []phaseStats
	for _, p := range phases[1:] {
		if p.traced {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}
	m := merge(plain)
	submit, fetch := summarize(m.submitMS), summarize(m.fetchMS)
	cpuPerUpdate := func(scale func(p phaseStats) float64) float64 {
		per := make([]float64, len(plain))
		for i, p := range plain {
			per[i] = scale(p) / float64(max(p.accepted, 1))
		}
		return median(per)
	}
	perUpdate := cpuPerUpdate(func(p phaseStats) float64 { return scaled(p.cpu, p.ref) })
	updatesPerStep := float64(m.accepted) / float64(max(m.steps, 1))
	rep.set("setup_s", median(setups))
	rep.set("scaled_cpu_ms_per_round", perUpdate*updatesPerStep)
	rep.set("scaled_cpu_ms_per_update", perUpdate)
	rep.set("alloc_mb_per_round", float64(m.alloc)/float64(max(m.steps, 1))/1e6)
	rep.set("alloc_kb_per_update", float64(m.alloc)/float64(max(m.accepted, 1))/1e3)
	rep.set("e2e.wall_rounds_per_s", float64(m.steps)/m.wall.Seconds())
	rep.set("e2e.wall_updates_per_s", m.updatesPerSec())
	rep.set("e2e.cpu_ms_per_round", cpuPerUpdate(func(p phaseStats) float64 { return ms(p.cpu) })*updatesPerStep)
	rep.set("host.ref_ms", median(mapPhases(plain, func(p phaseStats) float64 { return ms(p.ref) })))
	rep.note("wall_rounds_per_s", float64(m.steps)/m.wall.Seconds(), "1/s")
	rep.note("wall_updates_per_s", m.updatesPerSec(), "1/s")
	rep.note("cpu_ms_per_round", rep.metrics["e2e.cpu_ms_per_round"], "ms")
	rep.note("host.ref_ms", rep.metrics["host.ref_ms"], "ms")
	rep.dist("submit_ms", submit)
	rep.dist("fetch_ms", fetch)

	if traced {
		t := merge(withTrace)
		tr.report(rep, t, st, history)
		rep.set("trace.overhead_pct", 100*(m.updatesPerSec()/t.updatesPerSec()-1))
	}
	return rep
}

func (p phaseStats) updatesPerSec() float64 { return float64(p.accepted) / p.wall.Seconds() }

func mapPhases(ps []phaseStats, f func(phaseStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// merge pools several phases' samples and totals.
func merge(ps []phaseStats) phaseStats {
	var m phaseStats
	for _, p := range ps {
		m.wall += p.wall
		m.cpu += p.cpu
		m.accepted += p.accepted
		m.steps += p.steps
		m.alloc += p.alloc
		m.submitMS = append(m.submitMS, p.submitMS...)
		m.fetchMS = append(m.fetchMS, p.fetchMS...)
	}
	return m
}

// drive runs the closed loop through the phases in order: one goroutine
// and one connection per CPU, each cycling through its share of the
// session fleet. Between phases the loop pauses: the operations in flight
// finish, so each belongs wholly to the phase it started in, and the
// reference kernel runs on an otherwise idle process. It returns the
// requests attempted and failed; a failed request is counted and the loop
// goes on.
func (w serveSpec) drive(s *server, optimum []float64, seed int64, phases []phaseStats, tr *serveTrace) (attempted, failed int64) {
	conns := runtime.GOMAXPROCS(0)
	httpc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer httpc.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// gate is held by each operation for reading and by the pause between
	// phases for writing.
	var gate sync.RWMutex
	gate.Lock()
	var phase atomic.Int32
	var attemptedN, failedN atomic.Int64
	// per[w][p] is worker w's record of phase p, merged after the run.
	per := make([][]phaseStats, conns)
	// count tallies one finished request and reports whether it succeeded.
	// A request cut short by the end of the run is not counted.
	count := func(err error) bool {
		if err != nil && ctx.Err() != nil {
			return false
		}
		attemptedN.Add(1)
		if err != nil {
			failedN.Add(1)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		per[c] = make([]phaseStats, len(phases))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			noise := tensor.NewRNG(seed + 7919*int64(c+1))
			grad := make([]float64, w.dim)
			// one runs one fetch → gradient → submit for session id.
			one := func(id int) {
				rec := &per[c][phase.Load()]
				cl := transport.AsyncClient{Base: s.addr, ID: fmt.Sprintf("s%05d", id), HTTP: httpc}
				t0 := time.Now()
				model, err := cl.Model(ctx)
				if !count(err) {
					return
				}
				rec.fetchMS = append(rec.fetchMS, ms(time.Since(t0)))
				for j := range grad {
					g := model.Params[j] - optimum[j] + 0.1*noise.NormFloat64()
					if id%w.byzEvery == 0 {
						g *= -5
					}
					grad[j] = g
				}
				t1 := time.Now()
				res, err := cl.Submit(ctx, model.Version, 0, grad)
				if err == nil && !res.Accepted {
					err = errors.New("submit refused")
				}
				if !count(err) {
					return
				}
				rec.submitMS = append(rec.submitMS, ms(time.Since(t1)))
				rec.accepted++
			}
			for id := c; ctx.Err() == nil; id = (id + conns) % w.sessions {
				gate.RLock()
				one(id)
				gate.RUnlock()
			}
		}(c)
	}

	// mark is the process counters a phase is measured by.
	type mark struct {
		alloc uint64
		steps int64
		at    time.Time
		cpu   time.Duration
	}
	var mem runtime.MemStats
	read := func() mark {
		runtime.ReadMemStats(&mem)
		return mark{mem.TotalAlloc, s.agg.Stats().Steps, time.Now(), cpuTime()}
	}
	ref := refCPU()
	for i := range phases {
		if tr != nil {
			tr.on.Store(phases[i].traced)
		}
		phase.Store(int32(i))
		start := read()
		gate.Unlock()
		time.Sleep(phases[i].wall)
		gate.Lock()
		end := read()
		next := refCPU()
		phases[i].alloc = end.alloc - start.alloc
		phases[i].steps = end.steps - start.steps
		phases[i].wall = end.at.Sub(start.at)
		phases[i].cpu = end.cpu - start.cpu
		phases[i].ref = (ref + next) / 2
		ref = next
	}
	cancel()
	gate.Unlock()
	wg.Wait()
	for c := range per {
		for i := range phases {
			p := per[c][i]
			phases[i].accepted += p.accepted
			phases[i].submitMS = append(phases[i].submitMS, p.submitMS...)
			phases[i].fetchMS = append(phases[i].fetchMS, p.fetchMS...)
		}
	}
	return attemptedN.Load(), failedN.Load()
}

// rmsDist is the root-mean-square distance between a and b.
func rmsDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}

// serveTrace records the server side of traced phases: time in each
// handler, the bytes each carries, and time in the defense rule.
type serveTrace struct {
	on atomic.Bool

	mu                  sync.Mutex
	updateMS, modelMS   []float64
	reqBytes, respBytes int64
	defenseBusy         time.Duration
	defenseSteps        int
}

// handler wraps the protocol handler with a timer and byte counters.
func (t *serveTrace) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := ms(time.Since(t0))
		t.mu.Lock()
		defer t.mu.Unlock()
		switch r.URL.Path {
		case transport.AsyncPathUpdate:
			t.updateMS = append(t.updateMS, d)
			t.reqBytes += max(r.ContentLength, 0)
		case transport.AsyncPathModel:
			t.modelMS = append(t.modelMS, d)
			t.respBytes += cw.n
		}
	})
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedRule times the aggregator's defense; Name is forwarded through the
// embedded Rule.
type tracedRule struct {
	aggregate.Rule
	t *serveTrace
}

func (r tracedRule) Aggregate(grads [][]float64) (*aggregate.Result, error) {
	if !r.t.on.Load() {
		return r.Rule.Aggregate(grads)
	}
	t0 := time.Now()
	res, err := r.Rule.Aggregate(grads)
	d := time.Since(t0)
	r.t.mu.Lock()
	r.t.defenseBusy += d
	r.t.defenseSteps++
	r.t.mu.Unlock()
	return res, err
}

// report adds the per-layer metrics of the traced phases p.
func (t *serveTrace) report(rep *report, p phaseStats, st asyncfl.Stats, history []asyncfl.StepSummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	update, model := summarize(t.updateMS), summarize(t.modelMS)
	submit, fetch := summarize(p.submitMS), summarize(p.fetchMS)
	rep.set("transport.update_handler_ms_p50", update.P50)
	rep.set("transport.update_handler_ms_p99", update.P99)
	rep.set("transport.model_handler_ms_p50", model.P50)
	rep.set("transport.wire_submit_ms_p50", submit.P50-update.P50)
	rep.set("transport.wire_fetch_ms_p50", fetch.P50-model.P50)
	rep.set("transport.req_kb_per_update", float64(t.reqBytes)/float64(max(update.N, 1))/1e3)
	rep.set("transport.resp_kb_per_fetch", float64(t.respBytes)/float64(max(model.N, 1))/1e3)
	rep.set("serve.submit_ms_p50", submit.P50)
	rep.set("serve.submit_ms_p99", submit.P99)
	rep.set("serve.fetch_ms_p50", fetch.P50)
	rep.set("serve.fetch_ms_p99", fetch.P99)
	defensePerStep := ms(t.defenseBusy) / float64(max(t.defenseSteps, 1))
	rep.set("aggregate.defense_ms_per_step", defensePerStep)
	rep.dist("transport.update_handler_ms", update)
	rep.dist("transport.model_handler_ms", model)

	var kept, buffered int
	var stale float64
	for _, h := range history {
		kept += h.Kept
		buffered += h.Buffer
		stale += h.MeanStaleness * float64(h.Buffer)
	}
	rep.set("asyncfl.steps", float64(st.Steps))
	rep.set("asyncfl.kept_ratio", float64(kept)/float64(max(buffered, 1)))
	rep.set("asyncfl.mean_staleness", stale/float64(max(buffered, 1)))
	rep.set("asyncfl.drops", float64(st.Drops))
	rep.set("asyncfl.rejects", float64(st.Rejects))

	// Client time in traced requests (handler plus wire) against time in
	// the handlers and in the defense.
	transportMS := sum(p.submitMS) + sum(p.fetchMS)
	handlerMS := sum(t.updateMS) + sum(t.modelMS)
	defenseMS := ms(t.defenseBusy)
	rep.note("share.transport_handler_pct", 100*handlerMS/transportMS, "% of client request time")
	rep.note("share.aggregate_pct", 100*defenseMS/transportMS, "% of client request time")
	rep.purpose(fmt.Sprintf("transport handler+wire time exceeds defense time: %v (%.0f ms vs %.0f ms)",
		transportMS > defenseMS, transportMS, defenseMS))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
