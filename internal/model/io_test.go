package model

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

func savedTiny(t *testing.T) ([]byte, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	m, err := NewModel(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

// TestLoadTruncatedSnapshot: cutting the gob stream anywhere returns an
// error, never a panic — the failure mode of a half-written model.gob
// after a crashed save or an interrupted download.
func TestLoadTruncatedSnapshot(t *testing.T) {
	full, _ := savedTiny(t)
	for _, n := range []int{0, 1, 16, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation to %d/%d bytes accepted", n, len(full))
		}
	}
}

// TestLoadRejectsTamperedSnapshot: structurally valid gob with lying
// metadata — wrong format tag, shape/data disagreement, missing tensors —
// errors instead of building a scrambled model.
func TestLoadRejectsTamperedSnapshot(t *testing.T) {
	full, _ := savedTiny(t)
	decode := func(t *testing.T) *snapshot {
		t.Helper()
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(full)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}
	reload := func(snap *snapshot) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			return err
		}
		_, err := Load(&buf)
		return err
	}

	t.Run("wrong format", func(t *testing.T) {
		snap := decode(t)
		snap.Format = "clmids-model v999"
		if err := reload(snap); err == nil {
			t.Fatal("future format accepted")
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		snap := decode(t)
		snap.Shapes[0][0]++
		if err := reload(snap); err == nil {
			t.Fatal("shape drift accepted")
		}
	})
	t.Run("short tensor data", func(t *testing.T) {
		snap := decode(t)
		snap.Params[1] = snap.Params[1][:len(snap.Params[1])-1]
		if err := reload(snap); err == nil {
			t.Fatal("zero-length-shifted tensor accepted")
		}
	})
	t.Run("empty tensor section", func(t *testing.T) {
		snap := decode(t)
		snap.Params[2] = nil
		if err := reload(snap); err == nil {
			t.Fatal("nil tensor accepted")
		}
	})
	t.Run("dropped tensors", func(t *testing.T) {
		snap := decode(t)
		snap.Params = snap.Params[:len(snap.Params)/2]
		snap.Shapes = snap.Shapes[:len(snap.Shapes)/2]
		if err := reload(snap); err == nil {
			t.Fatal("half a model accepted")
		}
	})
	t.Run("short shape list", func(t *testing.T) {
		// Params is complete but Shapes is not: Load used to index past
		// the end of Shapes and panic.
		snap := decode(t)
		snap.Shapes = snap.Shapes[:1]
		if err := reload(snap); err == nil {
			t.Fatal("snapshot with one shape accepted")
		}
	})
	t.Run("oversize config", func(t *testing.T) {
		// A Config and shape list declaring a huge vocabulary must be
		// refused by the value count, before NewModel allocates the
		// 2^40-row embedding table they declare.
		snap := decode(t)
		snap.Cfg.VocabSize = 1 << 40
		snap.Shapes[0][0] = 1 << 40
		snap.Shapes[len(snap.Shapes)-1][1] = 1 << 40
		if err := reload(snap); err == nil {
			t.Fatal("oversize config accepted")
		}
	})
	t.Run("untampered control", func(t *testing.T) {
		// The mutation harness itself must round-trip cleanly.
		if err := reload(decode(t)); err != nil {
			t.Fatalf("control reload failed: %v", err)
		}
	})
}

// TestSaveDeterministic: saving the same weights twice yields identical
// bytes — the property bundle checksums and content-derived versions
// depend on.
func TestSaveDeterministic(t *testing.T) {
	full, m := savedTiny(t)
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, again.Bytes()) {
		t.Fatal("two saves of the same model differ")
	}
}

// TestParamShapesMatchModel: the shape list Load checks a snapshot against
// is the one NewModel builds, for several architectures.
func TestParamShapesMatchModel(t *testing.T) {
	wide := tinyConfig()
	wide.Layers, wide.FFN, wide.MaxSeqLen = 3, 24, 5
	for _, cfg := range []Config{tinyConfig(), fuzzSeedConfig(), wide} {
		m, err := NewModel(cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		params := m.Params()
		want := paramShapes(cfg)
		if len(want) != len(params) {
			t.Fatalf("%+v: paramShapes lists %d tensors, model has %d", cfg, len(want), len(params))
		}
		for i, p := range params {
			if got := [2]int{p.Val.Rows, p.Val.Cols}; got != want[i] {
				t.Errorf("%+v: tensor %d is %v, paramShapes says %v", cfg, i, got, want[i])
			}
		}
	}
}

// fuzzSeedConfig is the smallest valid architecture; FuzzModelLoad's
// checked-in seeds are snapshots of it.
func fuzzSeedConfig() Config {
	return Config{VocabSize: 6, MaxSeqLen: 2, Hidden: 2, Layers: 1, Heads: 1, FFN: 2, LayerNormEps: 1e-5}
}

// FuzzModelLoad feeds arbitrary bytes, seeded under testdata/fuzz with
// snapshots of tiny saved models, to Load. It never panics; an accepted
// snapshot re-saves to bytes that load and re-save identically; and an
// accepted model runs the float64 forward and its int8 lowering on a
// one-line batch.
func FuzzModelLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved snapshot refused: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save → load → save changed the bytes")
		}

		enc := m.Encoder
		batch := NewBatch([][]int{{2, 3}})
		if _, err := enc.InferForward(batch, NewInferScratch(enc.Config(), batch.Tokens())); err != nil {
			t.Fatalf("float64 forward: %v", err)
		}
		enc.Lowered()
		if _, err := enc.InferForward32(batch, NewInferScratchPrec(enc.Config(), batch.Tokens(), PrecisionInt8)); err != nil {
			t.Fatalf("int8 forward: %v", err)
		}
	})
}
