package model

import (
	"fmt"

	"clmids/internal/tensor"
)

// Int8 tape-free forward pass. The structure follows the float64
// InferForward: embeddings + position rows, embedding LayerNorm, then per
// block QKV projections, fused attention, output projection, residual +
// LayerNorm, FFN with GELU, residual + LayerNorm. Activations are float32
// throughout; the six linear weight matmuls per block run through the
// quantized kernel (dynamic per-row activation scales, int32 accumulate),
// each residual add rides in its LayerNorm's first pass
// (InferAddLayerNormInto32), and attention is one kernel call per query
// row and head (InferAttentionInto32).

// lowLinearInto runs one linear layer through the int8 kernel.
func lowLinearInto(x *tensor.Matrix32, ll *lowLinear, out *tensor.Matrix32, s *InferScratch) {
	tensor.InferQuantLinearInto(x, ll.Q, ll.B, out, &s.qs)
}

// InferForward32 runs the encoder forward pass on the int8 path, writing
// every intermediate into the float32 arena. The returned hidden-state
// matrix ([batch.Tokens(), Hidden]) is owned by the scratch and valid
// until its next use. The encoder's int8 weights are
// converted and cached on first use (see Lowered).
func (e *Encoder) InferForward32(batch Batch, s *InferScratch) (*tensor.Matrix32, error) {
	if s == nil {
		return nil, fmt.Errorf("model: InferForward32 needs a scratch arena")
	}
	if s.cfg != e.cfg {
		return nil, fmt.Errorf("model: scratch built for %+v, encoder is %+v", s.cfg, e.cfg)
	}
	if !s.prec.Low() {
		return nil, fmt.Errorf("model: scratch is %s; use InferForward", s.prec)
	}
	lw := e.Lowered()
	if err := batch.Validate(e.cfg.VocabSize, e.cfg.MaxSeqLen); err != nil {
		return nil, err
	}
	if batch.Size() == 0 {
		return nil, fmt.Errorf("model: empty batch")
	}
	s.grow(batch.Tokens())
	T := batch.Tokens()
	x := view32(s.x32, T)
	q := view32(s.q32, T)
	k := view32(s.k32, T)
	v := view32(s.v32, T)
	attn := view32(s.attn32, T)
	resid := view32(s.resid32, T)
	ff := view32(s.ff32, T)

	// Embeddings: token row + position row, then the embedding LayerNorm.
	row := 0
	for _, l := range batch.Lens {
		for p := 0; p < l; p++ {
			dst := x.Row(row)
			copy(dst, lw.tok.Row(batch.IDs[row]))
			prow := lw.pos.Row(p)
			for j, pv := range prow {
				dst[j] += pv
			}
			row++
		}
	}
	tensor.InferAddLayerNormInto32(x, nil, lw.embGamma, lw.embBeta, e.EmbNorm.Eps, x)

	for bi := range lw.blocks {
		blk := &lw.blocks[bi]
		lowLinearInto(x, &blk.WQ, q, s)
		lowLinearInto(x, &blk.WK, k, s)
		lowLinearInto(x, &blk.WV, v, s)
		tensor.InferAttentionInto32(q, k, v, e.cfg.Heads, batch.Lens, s.scores32, s.kt32, attn)
		lowLinearInto(attn, &blk.WO, resid, s)
		tensor.InferAddLayerNormInto32(x, resid, blk.AttnGamma, blk.AttnBeta, e.Blocks[bi].AttnNorm.Eps, x)

		lowLinearInto(x, &blk.FF1, ff, s)
		tensor.InferGELUInPlace32(ff)
		lowLinearInto(ff, &blk.FF2, resid, s)
		tensor.InferAddLayerNormInto32(x, resid, blk.FFGamma, blk.FFBeta, e.Blocks[bi].FFNorm.Eps, x)
	}
	return x, nil
}

// view32 reslices a capacity-sized float32 buffer to the batch's live row
// count without allocating.
func view32(m *tensor.Matrix32, rows int) *tensor.Matrix32 {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}
