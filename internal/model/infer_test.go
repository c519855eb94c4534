package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname for the haveSIMD test hook

	"clmids/internal/tensor"
)

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(t *testing.T, a, b *tensor.Matrix) float64 {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	worst := 0.0
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferForwardGolden asserts that the tape-free inference path matches
// the autograd forward pass bitwise: both run the same kernels in the same
// floating-point order, so even 1e-12 of drift would flag a divergence.
func TestInferForwardGolden(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()

	want, err := enc.Forward(batch, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewInferScratch(enc.Config(), batch.Tokens())
	got, err := enc.InferForward(batch, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, want.Val, got); d != 0 {
		t.Errorf("InferForward diverges from Forward by %g (want bitwise match)", d)
	}

	// Second run on the same (dirtied) scratch must still match.
	got2, err := enc.InferForward(batch, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, want.Val, got2); d != 0 {
		t.Errorf("scratch reuse diverges by %g", d)
	}
}

// TestInferEmbedAndCLSGolden checks the pooled variants against their tape
// equivalents.
func TestInferEmbedAndCLSGolden(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()
	scratch := NewInferScratch(enc.Config(), batch.Tokens())

	wantEmb, err := enc.EmbedLines(batch)
	if err != nil {
		t.Fatal(err)
	}
	gotEmb := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	if err := enc.InferEmbedInto(batch, scratch, gotEmb, 0); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, wantEmb, gotEmb); d != 0 {
		t.Errorf("InferEmbedInto diverges by %g", d)
	}

	wantCLS, err := enc.CLSTensor(batch, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotCLS := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	if err := enc.InferCLSInto(batch, scratch, gotCLS, 0); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, wantCLS.Val, gotCLS); d != 0 {
		t.Errorf("InferCLSInto diverges by %g", d)
	}
}

// TestInferForwardErrors covers the guard rails.
func TestInferForwardErrors(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewInferScratch(enc.Config(), 64)
	if _, err := enc.InferForward(tinyBatch(), nil); err == nil {
		t.Error("nil scratch accepted")
	}
	if _, err := enc.InferForward(Batch{}, scratch); err == nil {
		t.Error("empty batch accepted")
	}
	bad := Batch{IDs: []int{1, 2, 9999}, Lens: []int{3}}
	if _, err := enc.InferForward(bad, scratch); err == nil {
		t.Error("out-of-vocab batch accepted")
	}
	other := tinyConfig()
	other.Hidden = 32
	other.FFN = 64
	if _, err := enc.InferForward(tinyBatch(), NewInferScratch(other, 64)); err == nil {
		t.Error("mismatched scratch accepted")
	}
}

// TestInferScratchGrows verifies a small scratch transparently grows for a
// bigger batch instead of failing.
func TestInferScratchGrows(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewInferScratch(enc.Config(), 1) // raised to MaxSeqLen, still < batch
	var seqs [][]int
	for s := 0; s < 8; s++ {
		seqs = append(seqs, []int{2, 10 + s, 11, 12, 3})
	}
	batch := NewBatch(seqs)
	if batch.Tokens() <= scratch.MaxTokens() {
		t.Fatalf("batch of %d tokens does not exercise growth (cap %d)", batch.Tokens(), scratch.MaxTokens())
	}
	want, err := enc.Forward(batch, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.InferForward(batch, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, want.Val, got); d != 0 {
		t.Errorf("grown scratch diverges by %g", d)
	}
}

// TestInferForwardAllocFree pins the headline property of the inference
// engine: once the scratch arena is warm, scoring a batch allocates
// nothing, on the float64 and the int8 forward alike.
func TestInferForwardAllocFree(t *testing.T) {
	enc, err := NewEncoder(tinyConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch()
	for _, prec := range []Precision{PrecisionFloat64, PrecisionInt8} {
		scratch := NewInferScratchPrec(enc.Config(), batch.Tokens(), prec)
		out := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
		// Warm up once (the int8 weights lower on first use; keep the
		// measurement strictly steady-state).
		if err := enc.InferEmbedInto(batch, scratch, out, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := enc.InferEmbedInto(batch, scratch, out, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state %s inference allocates %.1f objects/op, want 0", prec, allocs)
		}
	}
}

// forwardBitsGolden is the sha256 of hashForwardBits over goldenEncoder
// on tinyBatch, computed on the Go mirrors with softmax and GELU on the
// tensor package's own exp and tanh. It is the same on both dispatch paths
// and with or without FMA (GODEBUG=cpu.fma=off). Any kernel that reorders
// a float64 sum, fuses a multiply-add or calls math.Exp changes it.
const forwardBitsGolden = "89dcb4638052ed6007d3889191421aec27bfdacc28d23d296d137bb46464f6cc"

// hashForwardBits digests the float64 bits of InferForward's hidden
// states and InferEmbedInto's pooled rows, with their shapes.
func hashForwardBits(t *testing.T, enc *Encoder, batch Batch) string {
	t.Helper()
	h := sha256.New()
	put := func(m *tensor.Matrix) {
		binary.Write(h, binary.LittleEndian, []int64{int64(m.Rows), int64(m.Cols)})
		for _, v := range m.Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	scratch := NewInferScratch(enc.Config(), batch.Tokens())
	hidden, err := enc.InferForward(batch, scratch)
	if err != nil {
		t.Fatal(err)
	}
	put(hidden)
	emb := tensor.NewMatrix(batch.Size(), enc.Config().Hidden)
	if err := enc.InferEmbedInto(batch, scratch, emb, 0); err != nil {
		t.Fatal(err)
	}
	put(emb)
	return hex.EncodeToString(h.Sum(nil))
}

// haveSIMD is the tensor package's kernel gate. It is reached through
// linkname so a test here can clear it, which routes every kernel to its
// pure-Go mirror, and check the forward on both dispatch paths.
//
//go:linkname haveSIMD clmids/internal/tensor.haveSIMD
var haveSIMD bool

// TestInferForwardBitsGolden pins the float64 forward's bits, not just
// its agreement with the tape: TestInferForwardGolden compares two paths
// that share the GEMM kernel, so it cannot see a kernel that drifts. It
// runs once on the Go mirrors and once on the host's kernels.
func TestInferForwardBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the constant is amd64's: no other host has checked it, and Go may fuse LayerNorm's multiply-adds on arm64, ppc64le, s390x and riscv64")
	}
	enc := goldenEncoder(t)
	host := haveSIMD
	defer func() { haveSIMD = host }()
	for _, simd := range []bool{false, host} {
		haveSIMD = simd
		if got := hashForwardBits(t, enc, tinyBatch()); got != forwardBitsGolden {
			t.Errorf("float64 forward changed (SIMD kernels %v): sha256 %s, want %s", simd, got, forwardBitsGolden)
		}
	}
}
