// Low-precision serving weights — the model half of the int8 serve path.
//
// The float64 encoder stays the canonical representation: training, the
// golden tests, and every persisted model snapshot are bitwise untouched.
// For serving, the encoder can be "lowered" once into a LowWeights mirror
// — int8 quantized linear weights (per-output-channel symmetric scales,
// tensor.Int8Matrix) with float32 norms/biases/embeddings — which the
// tape-free inference kernels then run against. Lowering is deterministic
// (TestLoweredGolden pins it), so the int8 weights are derived from the
// float64 backbone at load and never stored.
package model

import (
	"fmt"

	"clmids/internal/tensor"
)

// Precision selects the serve-path arithmetic. The zero value means
// float64 (the canonical path); int8 quarters weight traffic and
// accumulates in int32, with float32 activations.
type Precision string

// The two serving precisions.
const (
	PrecisionFloat64 Precision = "float64"
	PrecisionInt8    Precision = "int8"
)

// ParsePrecision maps flag/manifest spellings to a Precision. The empty
// string is float64 so zero-valued configs keep today's exact behavior.
// float32 was a serving precision once; it is rejected with a pointer to
// the replacement rather than as an unknown spelling.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return PrecisionFloat64, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	case "f32", "float32":
		return "", fmt.Errorf("model: float32 precision is no longer served; retrain the bundle with -precision int8 or the default float64")
	default:
		return "", fmt.Errorf("model: unknown precision %q (want float64 | int8)", s)
	}
}

// Valid reports whether p is a serving precision ("" counts as float64).
func (p Precision) Valid() bool {
	switch p {
	case "", PrecisionFloat64, PrecisionInt8:
		return true
	}
	return false
}

// Low reports whether p selects the reduced-precision (int8) serve path.
func (p Precision) Low() bool { return p == PrecisionInt8 }

// lowLinear is one linear layer's int8 serving weights (per-column scales
// inside Q); the bias stays float32 (it is added once per output element —
// quantizing it buys nothing).
type lowLinear struct {
	Q *tensor.Int8Matrix
	B *tensor.Matrix32 // may be nil
}

// lowBlock mirrors one transformer block.
type lowBlock struct {
	WQ, WK, WV, WO, FF1, FF2 lowLinear
	AttnGamma, AttnBeta      *tensor.Matrix32
	FFGamma, FFBeta          *tensor.Matrix32
}

// LowWeights is an encoder's full int8 serving weight set. It is
// immutable after construction and safe to share across engines, scratch
// arenas, and shard replicas.
type LowWeights struct {
	tok, pos *tensor.Matrix32
	embGamma *tensor.Matrix32
	embBeta  *tensor.Matrix32
	blocks   []lowBlock
}

// lowerLinear quantizes one linear layer's weight matrix to int8 and
// narrows its bias to float32.
func lowerLinear(w, b *tensor.Matrix) lowLinear {
	ll := lowLinear{Q: tensor.QuantizeMatrix(w)}
	if b != nil {
		ll.B = tensor.Narrow(b)
	}
	return ll
}

// Lowered returns the encoder's int8 serving weights, converting them on
// first use and returning the same pointer after (rows quantize once,
// never per call). The encoder's float64 weights must be frozen by the
// time this is called — the result is never invalidated, exactly like the
// inference engine's score memo. Safe for concurrent use.
func (e *Encoder) Lowered() *LowWeights {
	e.lowOnce.Do(func() {
		lw := &LowWeights{
			tok:      tensor.Narrow(e.TokEmb.W.Val),
			pos:      tensor.Narrow(e.PosEmb.W.Val),
			embGamma: tensor.Narrow(e.EmbNorm.Gamma.Val),
			embBeta:  tensor.Narrow(e.EmbNorm.Beta.Val),
			blocks:   make([]lowBlock, len(e.Blocks)),
		}
		for i, blk := range e.Blocks {
			lw.blocks[i] = lowBlock{
				WQ:        lowerLinear(blk.WQ.W.Val, blk.WQ.B.Val),
				WK:        lowerLinear(blk.WK.W.Val, blk.WK.B.Val),
				WV:        lowerLinear(blk.WV.W.Val, blk.WV.B.Val),
				WO:        lowerLinear(blk.WO.W.Val, blk.WO.B.Val),
				FF1:       lowerLinear(blk.FF1.W.Val, blk.FF1.B.Val),
				FF2:       lowerLinear(blk.FF2.W.Val, blk.FF2.B.Val),
				AttnGamma: tensor.Narrow(blk.AttnNorm.Gamma.Val),
				AttnBeta:  tensor.Narrow(blk.AttnNorm.Beta.Val),
				FFGamma:   tensor.Narrow(blk.FFNorm.Gamma.Val),
				FFBeta:    tensor.Narrow(blk.FFNorm.Beta.Val),
			}
		}
		e.lowered = lw
	})
	return e.lowered
}
