package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clmids/internal/nn"
)

func tinyConfig() Config {
	return Config{
		VocabSize:    50,
		MaxSeqLen:    16,
		Hidden:       16,
		Layers:       2,
		Heads:        2,
		FFN:          32,
		LayerNormEps: 1e-5,
		Dropout:      0.1,
	}
}

func tinyBatch() Batch {
	return NewBatch([][]int{
		{2, 10, 11, 12, 3},
		{2, 20, 21, 3},
		{2, 30, 3},
	})
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.VocabSize = 2 },
		func(c *Config) { c.MaxSeqLen = 1 },
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.Hidden = 15 }, // not divisible by heads
		func(c *Config) { c.Dropout = 1.0 },
		func(c *Config) { c.LayerNormEps = 0 },
		func(c *Config) { c.Layers = -1 },
		func(c *Config) { c.Dropout = math.NaN() },
		func(c *Config) { c.LayerNormEps = math.NaN() },
	}
	for i, mutate := range bad {
		c := tinyConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestPresetConfigs(t *testing.T) {
	if err := Default(500).Validate(); err != nil {
		t.Errorf("Default invalid: %v", err)
	}
	bb := BERTBase(50000)
	if err := bb.Validate(); err != nil {
		t.Errorf("BERTBase invalid: %v", err)
	}
	if bb.Layers != 12 || bb.Heads != 12 || bb.Hidden != 768 || bb.MaxSeqLen != 1024 {
		t.Errorf("BERTBase dims wrong: %+v", bb)
	}
}

func TestBatch(t *testing.T) {
	b := tinyBatch()
	if b.Size() != 3 || b.Tokens() != 12 {
		t.Fatalf("Size/Tokens = %d/%d", b.Size(), b.Tokens())
	}
	cls := b.CLSIndices()
	want := []int{0, 5, 9}
	for i := range want {
		if cls[i] != want[i] {
			t.Fatalf("CLSIndices = %v, want %v", cls, want)
		}
	}
	if err := b.Validate(50, 16); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := b.Validate(25, 16); err == nil {
		t.Error("out-of-vocab id accepted")
	}
	if err := b.Validate(50, 4); err == nil {
		t.Error("over-length sequence accepted")
	}
	empty := NewBatch([][]int{{}, {1}})
	if empty.Size() != 1 {
		t.Errorf("empty sequences should be dropped: %+v", empty)
	}
}

func TestEncoderForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBatch()
	h, err := enc.Forward(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != b.Tokens() || h.Cols() != 16 {
		t.Fatalf("hidden %dx%d, want %dx16", h.Rows(), h.Cols(), b.Tokens())
	}
}

func TestEncoderDeterministicInference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBatch()
	h1, err := enc.Forward(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := enc.Forward(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Val.Data {
		if h1.Val.Data[i] != h2.Val.Data[i] {
			t.Fatal("inference is not deterministic")
		}
	}
}

func TestEncoderSequenceIsolation(t *testing.T) {
	// Hidden states of a sequence must not depend on which other sequences
	// share the batch: attention must not cross boundaries.
	rng := rand.New(rand.NewSource(3))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := enc.Forward(NewBatch([][]int{{2, 10, 11, 12, 3}}), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	together, err := enc.Forward(NewBatch([][]int{{2, 10, 11, 12, 3}, {2, 40, 41, 42, 43, 3}}), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 16; j++ {
			a, b := solo.Val.At(i, j), together.Val.At(i, j)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestEncoderErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Forward(Batch{}, false, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := enc.Forward(tinyBatch(), true, nil); err == nil {
		t.Error("training without rng accepted despite dropout")
	}
	if _, err := NewEncoder(Config{}, rng); err == nil {
		t.Error("zero config accepted")
	}
}

func TestEmbedAndCLS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBatch()
	emb, err := enc.MeanPoolTensor(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows() != 3 || emb.Cols() != 16 {
		t.Fatalf("embeddings %dx%d, want 3x16", emb.Rows(), emb.Cols())
	}
	cls, err := enc.CLSTensor(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Rows() != 3 || cls.Cols() != 16 {
		t.Fatalf("cls %dx%d, want 3x16", cls.Rows(), cls.Cols())
	}
}

func TestMLMLossDecreases(t *testing.T) {
	// The core pre-training sanity check: a few AdamW steps on a fixed
	// masked batch must reduce the MLM loss.
	rng := rand.New(rand.NewSource(6))
	cfg := tinyConfig()
	cfg.Dropout = 0 // deterministic loss for a clean comparison
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch([][]int{
		{2, 10, 4, 12, 3}, // 4 = [MASK]
		{2, 4, 21, 3},
	})
	labels := []int{-100, -100, 11, -100, -100, -100, 20, -100, -100}
	opt := nn.NewAdamW(m.Params(), 3e-3, 0)
	var first, last float64
	for step := 0; step < 100; step++ {
		loss, err := m.MLMLoss(b, labels, -100, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss.Item()
		}
		last = loss.Item()
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if !(last < first*0.5) {
		t.Fatalf("MLM loss did not drop: first %.4f last %.4f", first, last)
	}
}

// trainStepBitsGolden is the sha256 of hashTrainSteps: the loss bits of
// three MLM+AdamW steps with dropout, then the bits of every parameter.
// It is the same on every float64 kernel tier and with or without FMA
// (GODEBUG=cpu.fma=off), so a change to the tape's forward or backward
// arithmetic, or to a kernel the tape runs, shows here.
const trainStepBitsGolden = "751f0b833f7e2c9046caf4653a1eb793b24655f218de2c1258dd32bb0dbf3e28"

// hashTrainSteps runs three MLM+AdamW steps on tinyConfig (dropout on)
// from fixed seeds and digests each step's loss bits and the final
// parameters' bits, with their shapes.
func hashTrainSteps(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	m, err := NewModel(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch([][]int{
		{2, 10, 4, 12, 3, 13, 14}, // 4 = [MASK]
		{2, 4, 21, 22, 3},
		{2, 30, 31, 4, 3},
		{2, 40, 3},
	})
	labels := []int{
		-100, -100, 11, -100, -100, -100, -100,
		-100, 20, -100, -100, -100,
		-100, -100, -100, 32, -100,
		-100, 41, -100,
	}
	opt := nn.NewAdamW(m.Params(), 3e-3, 0.01)
	h := sha256.New()
	for step := 0; step < 3; step++ {
		loss, err := m.MLMLoss(b, labels, -100, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		binary.Write(h, binary.LittleEndian, math.Float64bits(loss.Item()))
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	for _, p := range m.Params() {
		binary.Write(h, binary.LittleEndian, []int64{int64(p.Val.Rows), int64(p.Val.Cols)})
		for _, v := range p.Val.Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainStepBitsGolden pins training's bits on each of the host's
// float64 kernel tiers: the forward, the backward and the optimizer
// together. TestInferForwardBitsGolden pins only the inference forward.
func TestTrainStepBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the constant is amd64's: no other host has checked it, and Go may fuse multiply-adds on arm64, ppc64le, s390x and riscv64")
	}
	withF64Backends(func(tier string) {
		if got := hashTrainSteps(t); got != trainStepBitsGolden {
			t.Errorf("training steps changed (%s kernels): sha256 %s, want %s", tier, got, trainStepBitsGolden)
		}
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := NewModel(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	b := tinyBatch()
	h1, err := m.Encoder.Forward(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := loaded.Encoder.Forward(b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Val.Data {
		if h1.Val.Data[i] != h2.Val.Data[i] {
			t.Fatal("loaded model produces different hidden states")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestParamCountMatchesArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := tinyConfig()
	m, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := nn.CountParams(m)
	h, f, v, s, l := cfg.Hidden, cfg.FFN, cfg.VocabSize, cfg.MaxSeqLen, cfg.Layers
	perBlock := 4*(h*h+h) + 2*h + (h*f + f) + (f*h + h) + 2*h
	want := v*h + s*h + 2*h + l*perBlock + (h*h + h) + 2*h + v
	if got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestDropoutChangesTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	enc, err := NewEncoder(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBatch()
	h1, err := enc.Forward(b, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := enc.Forward(b, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range h1.Val.Data {
		if h1.Val.Data[i] != h2.Val.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("dropout had no effect on training forward passes")
	}
}
