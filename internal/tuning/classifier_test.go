package tuning

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clmids/internal/anomaly"
	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// classifierBitsGolden is the sha256 of the Float64bits of
// fixedHeadClassifier's ScoreFeatures over fixedHeadFeatures. It is the
// same with or without FMA (GODEBUG=cpu.fma=off) because the two-class
// softmax runs on tensor.Exp; on math.Exp the two give different hashes.
const classifierBitsGolden = "b9260d17a3b9cad0b9b42d653a834e6bbc134e7920d4754ead06cdd257c3b89f"

// fixedHeadClassifier builds a classifier head from uniform draws alone
// (no math.Exp in the generator), so the weights are the same bits on
// every host.
func fixedHeadClassifier(in, hidden int) *Classifier {
	rng := rand.New(rand.NewSource(41))
	head := nn.NewMLP(in, hidden, 2, rng)
	for _, p := range head.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] = rng.Float64()*2 - 1
		}
	}
	std := &anomaly.Standardizer{Mean: make([]float64, in), Std: make([]float64, in)}
	for j := range std.Mean {
		std.Mean[j] = rng.Float64() - 0.5
		std.Std[j] = 0.25 + rng.Float64()
	}
	return &Classifier{head: head, std: std}
}

// fixedHeadFeatures draws rows×in features whose logits span from near
// ties to differences of several hundred.
func fixedHeadFeatures(rows, in int) *tensor.Matrix {
	rng := rand.New(rand.NewSource(42))
	m := tensor.NewMatrix(rows, in)
	for i := 0; i < rows; i++ {
		scale := math.Ldexp(1, i%12-6)
		for j := range m.Row(i) {
			m.Row(i)[j] = (rng.Float64()*2 - 1) * scale
		}
	}
	return m
}

// TestClassifierScoreBitsGolden pins the bits of the classifier head's
// scores, so `-method classifier` scores stay host-independent.
func TestClassifierScoreBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the constant is amd64's; no other host has checked it")
	}
	const in, hidden = 8, 8
	scores := fixedHeadClassifier(in, hidden).ScoreFeatures(fixedHeadFeatures(256, in))
	h := sha256.New()
	for _, s := range scores {
		binary.Write(h, binary.LittleEndian, math.Float64bits(s))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != classifierBitsGolden {
		t.Errorf("classifier scores changed: sha256 %s, want %s", got, classifierBitsGolden)
	}
}
