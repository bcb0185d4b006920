package codec

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func testGrad(rng *rand.Rand, d int) []float64 {
	g := make([]float64, d)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	return g
}

func TestIdentityRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGrad(rng, 257)
	g[3] = math.Copysign(0, -1) // -0 must survive too
	e, err := IdentityCodec{}.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := IdentityCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(g) {
		t.Fatalf("dim %d, want %d", len(out), len(g))
	}
	for i := range g {
		if math.Float64bits(out[i]) != math.Float64bits(g[i]) {
			t.Fatalf("coord %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(g[i]))
		}
	}
	if e.Bytes() <= 8*len(g) {
		t.Errorf("identity Bytes() %d should include header over %d payload bytes", e.Bytes(), 8*len(g))
	}
}

// TestIdentityZeroCopy pins the identity codec's sharing contract: the
// round trip returns the submitted slice itself and allocates nothing.
func TestIdentityZeroCopy(t *testing.T) {
	g := testGrad(rand.New(rand.NewSource(3)), 64)
	var c Codec = IdentityCodec{}
	allocs := testing.AllocsPerRun(100, func() {
		e, err := c.Encode(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode(e)
		if err != nil || &out[0] != &g[0] {
			t.Fatalf("round trip did not return the submitted slice (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Errorf("identity round trip made %v allocations, want 0", allocs)
	}
}

// TestIdentityRejectsNonFinite: sharing the slice must not weaken the
// decode boundary — NaN and ±Inf payloads still fail with ErrNonFinite.
func TestIdentityRejectsNonFinite(t *testing.T) {
	var c Codec = IdentityCodec{}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e, err := c.Encode([]float64{1, bad, 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(e); !errors.Is(err, ErrNonFinite) {
			t.Errorf("payload with %v: got %v, want ErrNonFinite", bad, err)
		}
	}
}

// TestIdentityRejectsDimMismatch: a payload whose length disagrees with
// its declared dimension is refused rather than passed through.
func TestIdentityRejectsDimMismatch(t *testing.T) {
	g := testGrad(rand.New(rand.NewSource(3)), 3)
	for _, dense := range [][]float64{g[:2], append(g, 4)} {
		if _, err := (IdentityCodec{}).Decode(Encoded{Codec: Identity, Dim: 3, Dense: dense}); err == nil {
			t.Errorf("identity payload of %d values for dim 3 accepted", len(dense))
		}
	}
}

// TestTopKKeepsLargestExact checks the satellite property: topk preserves
// the k largest-magnitude coordinates bit-exactly and zeroes the rest.
func TestTopKKeepsLargestExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testGrad(rng, 400)
	const k = 37
	c := TopKCodec{K: k}
	e, err := c.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != k || len(e.Val) != k {
		t.Fatalf("kept %d/%d coords, want %d", len(e.Idx), len(e.Val), k)
	}
	out, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}

	// Reference selection: indices sorted by magnitude descending.
	order := make([]int, len(g))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return math.Abs(g[order[a]]) > math.Abs(g[order[b]]) })
	want := map[int]bool{}
	for _, i := range order[:k] {
		want[i] = true
	}
	for i := range g {
		if want[i] {
			if math.Float64bits(out[i]) != math.Float64bits(g[i]) {
				t.Errorf("kept coord %d not bit-exact: %v != %v", i, out[i], g[i])
			}
		} else if out[i] != 0 {
			t.Errorf("dropped coord %d decoded to %v, want 0", i, out[i])
		}
	}
	if e.Bytes() >= 8*len(g) {
		t.Errorf("topk Bytes() %d not smaller than dense %d", e.Bytes(), 8*len(g))
	}
}

func TestTopKDefaultKAndTies(t *testing.T) {
	// Default K: d/10, at least 1.
	e, err := TopKCodec{}.Encode(make([]float64, 95), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != 9 {
		t.Errorf("default k on d=95 kept %d, want 9", len(e.Idx))
	}
	e, err = TopKCodec{}.Encode([]float64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Idx) != 1 {
		t.Errorf("default k on d=2 kept %d, want 1", len(e.Idx))
	}
	// Ties break toward the lower index.
	e, err = TopKCodec{K: 2}.Encode([]float64{3, -3, 3, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Idx[0] != 0 || e.Idx[1] != 1 {
		t.Errorf("tie-break kept %v, want [0 1]", e.Idx)
	}
}

// TestQSGDUnbiased checks the satellite property: averaged over many
// seeds, the decoded gradient converges to the input (stochastic rounding
// is unbiased).
func TestQSGDUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testGrad(rng, 24)
	c := QSGDCodec{Levels: 4}
	const trials = 4000
	mean := make([]float64, len(g))
	for s := 0; s < trials; s++ {
		e, err := c.Encode(g, rand.New(rand.NewSource(int64(s))))
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			mean[i] += v / trials
		}
	}
	// Per-coordinate quantization noise is bounded by scale/levels; the
	// empirical mean of `trials` draws should be well inside that.
	var norm float64
	for _, v := range g {
		norm += v * v
	}
	tol := 4 * math.Sqrt(norm) / float64(c.Levels) / math.Sqrt(trials)
	for i := range g {
		if d := math.Abs(mean[i] - g[i]); d > tol {
			t.Errorf("coord %d: empirical mean %v vs %v (|Δ|=%g > %g)", i, mean[i], g[i], d, tol)
		}
	}
}

func TestQSGDLevelsBoundAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testGrad(rng, 100)
	e, err := QSGDCodec{Levels: 7}.Encode(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range e.Q {
		if q < -7 || q > 7 {
			t.Fatalf("level %d at coord %d out of ±7", q, i)
		}
	}
	// Zero gradient: zero scale, all-zero levels, decodes to zeros.
	e, err = QSGDCodec{}.Encode(make([]float64, 5), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := QSGDCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero gradient decoded to %v", out)
		}
	}
	// Missing RNG is an error, not a silent deterministic fallback.
	if _, err := (QSGDCodec{}).Encode(g, nil); err == nil {
		t.Error("qsgd Encode accepted a nil RNG")
	}
}

// TestSignSGDMatchesSignbit checks the satellite property: decode equals
// the math.Signbit mapping (+1 for positive and +0, -1 for negative and -0).
func TestSignSGDMatchesSignbit(t *testing.T) {
	g := []float64{1.5, -2.25, 0, math.Copysign(0, -1), -1e-300, 7, -7, 0.25, -0.25}
	e, err := SignSGDCodec{}.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SignSGDCodec{}.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g {
		want := 1.0
		if math.Signbit(v) {
			want = -1.0
		}
		if out[i] != want {
			t.Errorf("coord %d (%v): decoded %v, want %v", i, v, out[i], want)
		}
	}
	if want := (len(g) + 7) / 8; len(e.Sign) != want {
		t.Errorf("sign payload %d bytes, want %d", len(e.Sign), want)
	}
}

// TestEncodeDeterministic: same gradient + same seed → bit-identical wire
// payload, for every builtin codec.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGrad(rng, 333)
	for _, name := range Builtin().Names() {
		c, err := Builtin().Build(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		e1, err := c.Encode(g, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		e2, err := c.Encode(g, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(e1)
		b2, _ := json.Marshal(e2)
		if string(b1) != string(b2) {
			t.Errorf("%s: encode not deterministic under a fixed seed", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := Builtin()
	want := []string{Identity, TopK, QSGD, SignSGD}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if len(r.Specs()) != len(want) {
		t.Fatalf("Specs() has %d entries", len(r.Specs()))
	}

	// Declared hyperparameters build; undeclared ones are rejected.
	c, err := r.Build(TopK, Params{Hyper: map[string]float64{"k": 64}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "topk(64)" {
		t.Errorf("built %q", c.Name())
	}
	if _, err := r.Build(TopK, Params{Hyper: map[string]float64{"levels": 4}}); err == nil {
		t.Error("topk accepted hyperparameter 'levels'")
	}
	if _, err := r.Build(QSGD, Params{Hyper: map[string]float64{"levels": 200}}); err == nil {
		t.Error("qsgd accepted levels=200")
	}
	if _, err := r.Build("nope", Params{}); err == nil {
		t.Error("unknown codec accepted")
	}
	if err := r.ValidateHyper(SignSGD, map[string]float64{"k": 1}); err == nil {
		t.Error("signsgd accepted hyperparameter 'k'")
	}

	// Registry.Decode dispatches on the payload tag.
	rng := rand.New(rand.NewSource(6))
	g := testGrad(rng, 50)
	enc, err := c.Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(g) {
		t.Fatalf("Decode dim %d, want %d", len(out), len(g))
	}
	if _, err := r.Decode(Encoded{Codec: "nope"}); err == nil {
		t.Error("Decode accepted an unknown payload tag")
	}
}

// TestDecodeRejectsCorruptPayloads: a truncated or inconsistent wire
// payload must error, never panic or silently mis-decode.
func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	for _, e := range []Encoded{
		{Codec: Identity, Dim: 4, Dense: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{0, 1}, Val: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{9}, Val: []float64{1}},
		{Codec: TopK, Dim: 4, Idx: []int32{-1}, Val: []float64{1}},
		// Negative or undersized declared dimensions must be refused before
		// any Dim-sized allocation: Encoded is untrusted wire input, and a
		// Dim of -1 slips past signsgd's (Dim+7)/8 length check into a
		// panicking makeslice without the explicit guard.
		{Codec: TopK, Dim: -1},
		{Codec: SignSGD, Dim: -1},
		{Codec: TopK, Dim: 2, Idx: []int32{0, 1, 1}, Val: []float64{1, 2, 3}},
		{Codec: QSGD, Dim: 4, Scale: 1, Levels: 4, Q: []int8{1}},
		{Codec: QSGD, Dim: 1, Scale: 1, Levels: 0, Q: []int8{1}},
		{Codec: SignSGD, Dim: 100, Sign: []byte{0}},
	} {
		if _, err := Builtin().Decode(e); err == nil {
			t.Errorf("corrupt %s payload accepted: %+v", e.Codec, e)
		}
	}
}
