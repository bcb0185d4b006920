package fl

import (
	"errors"
	"fmt"

	"github.com/signguard/signguard/internal/data"
	"github.com/signguard/signguard/internal/nn"
	"github.com/signguard/signguard/internal/parallel"
	"github.com/signguard/signguard/internal/tensor"
)

// BatchedCompute is the local stage: participants are partitioned
// contiguously over the worker model replicas, and instead of one
// forward/backward pass per client each worker stacks the minibatches of
// its clients into one matrix, runs a single forward/backward per layer
// (nn.BatchClassifier), and de-interleaves the per-client gradients from
// the batch dimension.
//
// Equivalence contract: every client draws from its own sampler stream,
// segments are processed in participant order, and the segmented kernels
// accumulate each client's gradient terms in the exact order a standalone
// per-client LossAndGrad uses — so the outputs are byte-identical
// (math.Float64bits) to computing each client's gradient on its own, for
// any worker count, pinned by TestGoldenBatchedEquivalence. Both the image
// stacks (FeedForward) and the text RNN batch; models that cannot fall
// back to the per-client path transparently.
//
// The stage is stateful (use a pointer): each worker owns a workerScratch
// holding an nn.Workspace arena plus the tile-assembly buffers, so
// steady-state rounds run the stacked passes without re-allocating
// activation, im2col or input matrices. Scratch is indexed by worker and
// never shared across goroutines; reuse cannot change results because
// every arena buffer is either fully overwritten or explicitly zeroed
// before use (see nn.Workspace).
type BatchedCompute struct {
	scratch []*workerScratch
}

// workerScratch is one worker's reusable buffers: the layer-scratch arena
// and the tile input assembly (stacked examples, segmentation, labels and
// the dense feature matrix or token row index).
type workerScratch struct {
	ws      *nn.Workspace
	batches []data.Example
	bounds  []int
	labels  []int
	tokens  [][]int
	dense   tensor.Matrix
}

// ensureScratch grows the per-worker scratch table to n entries.
func (bc *BatchedCompute) ensureScratch(n int) {
	for len(bc.scratch) < n {
		bc.scratch = append(bc.scratch, &workerScratch{ws: nn.NewWorkspace()})
	}
}

// Name implements LocalCompute.
func (bc *BatchedCompute) Name() string { return "batched-sgd" }

// Compute implements LocalCompute: each worker trains its contiguous
// client range in stacked tile passes.
func (bc *BatchedCompute) Compute(env *LocalEnv, participants []*Client) ([]ClientGrad, error) {
	outs := make([]ClientGrad, len(participants))
	workers := env.Workers
	if workers > len(participants) {
		workers = len(participants)
	}
	if workers <= 1 {
		// Replicas[0] is the main model, already positioned at Global.
		bc.ensureScratch(1)
		bc.computeRange(env, env.Replicas[0], bc.scratch[0], participants, outs, 0, len(participants))
		return outs, nil
	}
	bc.ensureScratch(workers)
	parallel.For(workers, len(participants), func(w, start, end int) {
		m := env.Replicas[w]
		if err := m.SetParamVector(env.Global); err != nil {
			for i := start; i < end; i++ {
				outs[i].Err = err
			}
			return
		}
		bc.computeRange(env, m, bc.scratch[w], participants, outs, start, end)
	})
	return outs, nil
}

// batchTileRows caps how many stacked rows one forward/backward pass
// carries. Stacking an entire 200-client cohort would push every layer's
// activation matrix far past the cache sizes, making the pass memory-bound
// and erasing the amortization win; tiles of this many rows keep the
// working set L2-resident while still spreading the per-pass fixed costs
// over dozens of clients. Tiling only groups whole client segments, so it
// cannot affect results.
const batchTileRows = 1024

// computeRange trains participants [start,end) on one model replica:
// stacked tile passes when the model supports them, the per-client path
// otherwise.
func (bc *BatchedCompute) computeRange(env *LocalEnv, m nn.Classifier, sc *workerScratch, participants []*Client, outs []ClientGrad, start, end int) {
	bm, ok := m.(nn.BatchClassifier)
	if !ok {
		// No batched path for this model family: fall back to the
		// per-client loop, which draws the same batches from the same
		// sampler streams.
		for i := start; i < end; i++ {
			outs[i] = localGradient(env, m, participants[i])
		}
		return
	}
	for tile := start; tile < end; {
		next := bc.computeTile(env, bm, sc, participants, outs, tile, end)
		if next <= tile { // a failed tile reports through outs; stop the range
			return
		}
		tile = next
	}
}

// computeTile stacks the minibatches of as many clients from [start,end)
// as fit in batchTileRows (at least one), trains them in one pass, and
// returns the index after the last client it consumed.
func (bc *BatchedCompute) computeTile(env *LocalEnv, bm nn.BatchClassifier, sc *workerScratch, participants []*Client, outs []ClientGrad, start, end int) int {
	// Draw minibatches in participant order (each from its own sampler
	// stream) until the tile is full, recording the row segmentation. Tail
	// batches at an epoch boundary may be smaller than BatchSize, so
	// segments are not necessarily equal-sized.
	sc.batches = sc.batches[:0]
	sc.bounds = append(sc.bounds[:0], 0)
	last := start
	for last < end && (last == start || len(sc.batches)+env.BatchSize <= batchTileRows) {
		b := participants[last].Sampler.Batch(env.BatchSize)
		sc.batches = append(sc.batches, b...)
		sc.bounds = append(sc.bounds, len(sc.batches))
		last++
	}

	fail := func(err error) {
		for i := start; i < last; i++ {
			outs[i] = ClientGrad{Err: err}
		}
	}
	in, labels, err := sc.tileInput(env.Dataset)
	if err != nil {
		fail(err)
		return start
	}
	var segs []nn.SegmentGrad
	if wm, ok := bm.(nn.WorkspaceBatchClassifier); ok {
		segs, err = wm.BatchedLossAndGradWs(sc.ws, in, labels, sc.bounds)
	} else {
		segs, err = bm.BatchedLossAndGrad(in, labels, sc.bounds)
	}
	if err != nil {
		fail(fmt.Errorf("fl: batched gradients for clients %d..%d: %w",
			participants[start].ID, participants[last-1].ID, err))
		return start
	}
	for k, s := range segs {
		outs[start+k] = ClientGrad{Grad: s.Grad, Loss: s.Loss}
	}
	return last
}

// tileInput assembles sc.batches into a model input, mirroring BatchInput
// but through the scratch buffers: the label slice, token row index and
// dense feature backing are all reused across tiles. None of them escape
// the local stage — the nn kernels read the input and write gradients into
// fresh vectors.
func (sc *workerScratch) tileInput(ds *data.Dataset) (nn.Input, []int, error) {
	batch := sc.batches
	if len(batch) == 0 {
		return nn.Input{}, nil, errors.New("fl: empty batch")
	}
	if cap(sc.labels) < len(batch) {
		sc.labels = make([]int, len(batch))
	}
	labels := sc.labels[:len(batch)]
	if ds.IsText() {
		if cap(sc.tokens) < len(batch) {
			sc.tokens = make([][]int, len(batch))
		}
		tokens := sc.tokens[:len(batch)]
		for i, e := range batch {
			if e.Tokens == nil {
				return nn.Input{}, nil, fmt.Errorf("fl: example %d has no tokens in text dataset %s", i, ds.Name)
			}
			tokens[i] = e.Tokens
			labels[i] = e.Label
		}
		return nn.Input{Tokens: tokens}, labels, nil
	}
	d := ds.FeatureDim()
	if need := len(batch) * d; cap(sc.dense.Data) < need {
		sc.dense.Data = make([]float64, need)
	}
	sc.dense.Rows, sc.dense.Cols = len(batch), d
	sc.dense.Data = sc.dense.Data[:len(batch)*d]
	for i, e := range batch {
		if len(e.Features) != d {
			return nn.Input{}, nil, fmt.Errorf("fl: example %d has %d features, want %d", i, len(e.Features), d)
		}
		copy(sc.dense.Row(i), e.Features)
		labels[i] = e.Label
	}
	return nn.Input{Dense: &sc.dense}, labels, nil
}
