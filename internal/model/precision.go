// Low-precision serving weights — the model half of the int8 serve path.
//
// The float64 encoder stays the canonical representation: training, the
// golden tests, and every persisted model snapshot are bitwise untouched.
// For serving, the encoder can be "lowered" once into a LowWeights mirror
// — int8 quantized linear weights (per-output-channel symmetric scales,
// tensor.Int8Matrix) with float32 norms/biases/embeddings — which the
// tape-free inference kernels then run against. Lowering is deterministic,
// so a quantized bundle section and an on-the-fly conversion of the same
// float64 weights are byte-identical.
package model

import (
	"encoding/gob"
	"fmt"
	"io"

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
	prec     Precision
	cfg      Config
	tok, pos *tensor.Matrix32
	embGamma *tensor.Matrix32
	embBeta  *tensor.Matrix32
	blocks   []lowBlock
}

// Precision returns the precision these weights were lowered to (int8).
func (lw *LowWeights) Precision() Precision { return lw.prec }

// lowerLinear quantizes one linear layer's weight matrix to int8 and
// narrows its bias to float32.
func lowerLinear(w, b *tensor.Matrix) lowLinear {
	ll := lowLinear{Q: tensor.QuantizeMatrix(w)}
	if b != nil {
		ll.B = tensor.Narrow(b)
	}
	return ll
}

// Lowered returns the encoder's int8 serving weights, converting and
// caching them on first use (rows quantize once at load, never per
// call). The encoder's float64 weights must be frozen by the time this is
// called — the cache is never invalidated, exactly like the inference
// engine's score memo. Safe for concurrent use.
func (e *Encoder) Lowered(p Precision) (*LowWeights, error) {
	if !p.Low() {
		return nil, fmt.Errorf("model: no lowered weights for precision %q", p)
	}
	e.lowMu.Lock()
	defer e.lowMu.Unlock()
	if lw, ok := e.lowered[p]; ok {
		return lw, nil
	}
	lw := &LowWeights{
		prec:     p,
		cfg:      e.cfg,
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
	if e.lowered == nil {
		e.lowered = make(map[Precision]*LowWeights, 2)
	}
	e.lowered[p] = lw
	return lw, nil
}

// SetLowered installs pre-converted serving weights (e.g. a bundle's
// quantized section) into the encoder's cache, so Lowered returns them
// instead of re-converting. The weights must describe the same
// architecture.
func (e *Encoder) SetLowered(lw *LowWeights) error {
	if !lw.prec.Low() {
		return fmt.Errorf("model: SetLowered with precision %q", lw.prec)
	}
	if lw.cfg != e.cfg {
		return fmt.Errorf("model: lowered weights built for %+v, encoder is %+v", lw.cfg, e.cfg)
	}
	e.lowMu.Lock()
	defer e.lowMu.Unlock()
	if e.lowered == nil {
		e.lowered = make(map[Precision]*LowWeights, 2)
	}
	e.lowered[lw.prec] = lw
	return nil
}

// lowSnapshot is the gob form of LowWeights: plain slices in a fixed walk
// order (no maps), so saving the same weights twice yields identical bytes
// — bundle checksums and content-derived versions depend on that.
type lowSnapshot struct {
	Format string
	Prec   string
	Cfg    Config
	// F32 holds every float32 matrix in walk order: tok, pos, embGamma,
	// embBeta, then per block the linear biases and norm params.
	F32 []*tensor.Matrix32
	// Q holds the quantized linear weights in block order (wq, wk, wv, wo,
	// ff1, ff2 per block).
	Q []*tensor.Int8Matrix
}

const lowFormat = "clmids-lowweights v1"

// walk visits every matrix of lw in the canonical serialization order.
func (lw *LowWeights) walk(f32 func(*tensor.Matrix32), q func(*tensor.Int8Matrix)) {
	f32(lw.tok)
	f32(lw.pos)
	f32(lw.embGamma)
	f32(lw.embBeta)
	for i := range lw.blocks {
		b := &lw.blocks[i]
		for _, ll := range []*lowLinear{&b.WQ, &b.WK, &b.WV, &b.WO, &b.FF1, &b.FF2} {
			q(ll.Q)
			if ll.B != nil {
				f32(ll.B)
			}
		}
		f32(b.AttnGamma)
		f32(b.AttnBeta)
		f32(b.FFGamma)
		f32(b.FFBeta)
	}
}

// SaveLowWeights writes lw to w in the deterministic snapshot form.
func SaveLowWeights(w io.Writer, lw *LowWeights) error {
	snap := lowSnapshot{Format: lowFormat, Prec: string(lw.prec), Cfg: lw.cfg}
	lw.walk(
		func(m *tensor.Matrix32) { snap.F32 = append(snap.F32, m) },
		func(m *tensor.Int8Matrix) { snap.Q = append(snap.Q, m) },
	)
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("model: encoding lowered weights: %w", err)
	}
	return nil
}

// LoadLowWeights reads a snapshot written by SaveLowWeights, validating
// every matrix shape against the embedded architecture before returning.
func LoadLowWeights(r io.Reader) (*LowWeights, error) {
	var snap lowSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("model: decoding lowered weights: %w", err)
	}
	if snap.Format != lowFormat {
		return nil, fmt.Errorf("model: unknown lowered-weights format %q", snap.Format)
	}
	prec := Precision(snap.Prec)
	if !prec.Low() {
		return nil, fmt.Errorf("model: lowered-weights precision %q is not int8", snap.Prec)
	}
	if err := snap.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfg := snap.Cfg
	lw := &LowWeights{prec: prec, cfg: cfg, blocks: make([]lowBlock, cfg.Layers)}

	// Re-walk the canonical order, consuming the snapshot slices and
	// validating shapes as they land.
	f32At, qAt := 0, 0
	var walkErr error
	nextF32 := func(rows, cols int, name string) *tensor.Matrix32 {
		if walkErr != nil {
			return nil
		}
		if f32At >= len(snap.F32) {
			walkErr = fmt.Errorf("model: lowered weights truncated at %s", name)
			return nil
		}
		m := snap.F32[f32At]
		f32At++
		if m == nil || m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
			walkErr = fmt.Errorf("model: lowered %s malformed (want %dx%d)", name, rows, cols)
			return nil
		}
		return m
	}
	nextQ := func(rows, cols int, name string) *tensor.Int8Matrix {
		if walkErr != nil {
			return nil
		}
		if qAt >= len(snap.Q) {
			walkErr = fmt.Errorf("model: lowered weights truncated at %s", name)
			return nil
		}
		m := snap.Q[qAt]
		qAt++
		if m == nil {
			walkErr = fmt.Errorf("model: lowered %s missing", name)
			return nil
		}
		if err := m.CheckShape(rows, cols); err != nil {
			walkErr = fmt.Errorf("model: lowered %s: %w", name, err)
			return nil
		}
		return m
	}
	nextLinear := func(in, out int, name string) lowLinear {
		q := nextQ(in, out, name)
		return lowLinear{Q: q, B: nextF32(1, out, name+" bias")}
	}

	lw.tok = nextF32(cfg.VocabSize, cfg.Hidden, "token embedding")
	lw.pos = nextF32(cfg.MaxSeqLen, cfg.Hidden, "position embedding")
	lw.embGamma = nextF32(1, cfg.Hidden, "embedding norm gamma")
	lw.embBeta = nextF32(1, cfg.Hidden, "embedding norm beta")
	for i := range lw.blocks {
		lw.blocks[i] = lowBlock{
			WQ:        nextLinear(cfg.Hidden, cfg.Hidden, fmt.Sprintf("block %d WQ", i)),
			WK:        nextLinear(cfg.Hidden, cfg.Hidden, fmt.Sprintf("block %d WK", i)),
			WV:        nextLinear(cfg.Hidden, cfg.Hidden, fmt.Sprintf("block %d WV", i)),
			WO:        nextLinear(cfg.Hidden, cfg.Hidden, fmt.Sprintf("block %d WO", i)),
			FF1:       nextLinear(cfg.Hidden, cfg.FFN, fmt.Sprintf("block %d FF1", i)),
			FF2:       nextLinear(cfg.FFN, cfg.Hidden, fmt.Sprintf("block %d FF2", i)),
			AttnGamma: nextF32(1, cfg.Hidden, fmt.Sprintf("block %d attn gamma", i)),
			AttnBeta:  nextF32(1, cfg.Hidden, fmt.Sprintf("block %d attn beta", i)),
			FFGamma:   nextF32(1, cfg.Hidden, fmt.Sprintf("block %d ff gamma", i)),
			FFBeta:    nextF32(1, cfg.Hidden, fmt.Sprintf("block %d ff beta", i)),
		}
	}
	if walkErr != nil {
		return nil, walkErr
	}
	if f32At != len(snap.F32) || qAt != len(snap.Q) {
		return nil, fmt.Errorf("model: lowered weights carry %d extra matrices",
			len(snap.F32)-f32At+len(snap.Q)-qAt)
	}
	return lw, nil
}
