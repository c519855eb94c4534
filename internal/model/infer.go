package model

import (
	"fmt"

	"clmids/internal/tensor"
)

// InferScratch is a reusable arena for the tape-free inference path. One
// scratch serves one goroutine; a batch scheduler gives each worker its
// own. All buffers are sized from the model Config plus a token capacity,
// so steady-state scoring through InferForward allocates nothing.
type InferScratch struct {
	cfg       Config
	prec      Precision
	maxTokens int

	// Token-major activation buffers, capacity maxTokens rows. x carries
	// the residual stream; q/k/v/attn/resid hold per-block intermediates;
	// ff holds the FFN expansion.
	x, q, k, v, attn, resid *tensor.Matrix
	ff                      *tensor.Matrix
	// scores holds one sequence's post-softmax attention matrices, one
	// S×S block per head (capacity Heads·MaxSeqLen²), and work the
	// attention kernel's scratch (tensor.AttentionWorkLen).
	scores, work []float64

	// Float32 mirrors of the buffers above, allocated instead of the
	// float64 set on the int8 path (see infer32.go).
	x32, q32, k32, v32, attn32, resid32 *tensor.Matrix32
	ff32                                *tensor.Matrix32
	// scores32 holds one query row's attention scores and kt32 one
	// sequence's transposed K, for MaxSeqLen rounded up to the kernel's 8
	// lanes: capacities Sp and Sp·Hidden.
	scores32, kt32 []float32
	// qs is the int8 path's activation-quantization scratch.
	qs tensor.QuantScratch
}

// NewInferScratchPrec allocates an arena able to run batches of up to
// maxTokens total tokens (raised to cfg.MaxSeqLen so one full-length line
// always fits) at the given precision: the float64 buffer set for
// PrecisionFloat64, the float32 activation set plus the quantization
// scratch for PrecisionInt8.
func NewInferScratchPrec(cfg Config, maxTokens int, prec Precision) *InferScratch {
	if prec == "" {
		prec = PrecisionFloat64
	}
	s := &InferScratch{cfg: cfg, prec: prec}
	s.grow(maxTokens)
	return s
}

// MaxTokens reports the current token capacity.
func (s *InferScratch) MaxTokens() int { return s.maxTokens }

// Precision reports the rung the scratch was built for.
func (s *InferScratch) Precision() Precision { return s.prec }

// grow (re)allocates every buffer for a token capacity of at least n.
func (s *InferScratch) grow(n int) {
	if n < s.cfg.MaxSeqLen {
		n = s.cfg.MaxSeqLen
	}
	if n <= s.maxTokens {
		return
	}
	s.maxTokens = n
	if s.prec.Low() {
		s.x32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.q32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.k32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.v32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.attn32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.resid32 = tensor.NewMatrix32(n, s.cfg.Hidden)
		s.ff32 = tensor.NewMatrix32(n, s.cfg.FFN)
		sp := (s.cfg.MaxSeqLen + 7) &^ 7
		s.scores32 = make([]float32, sp)
		s.kt32 = make([]float32, sp*s.cfg.Hidden)
		w := s.cfg.Hidden
		if s.cfg.FFN > w {
			w = s.cfg.FFN
		}
		s.qs.EnsureQuant(w, w)
		return
	}
	s.x = tensor.NewMatrix(n, s.cfg.Hidden)
	s.q = tensor.NewMatrix(n, s.cfg.Hidden)
	s.k = tensor.NewMatrix(n, s.cfg.Hidden)
	s.v = tensor.NewMatrix(n, s.cfg.Hidden)
	s.attn = tensor.NewMatrix(n, s.cfg.Hidden)
	s.resid = tensor.NewMatrix(n, s.cfg.Hidden)
	s.ff = tensor.NewMatrix(n, s.cfg.FFN)
	s.scores = make([]float64, s.cfg.Heads*s.cfg.MaxSeqLen*s.cfg.MaxSeqLen)
	s.work = make([]float64, tensor.AttentionWorkLen(s.cfg.MaxSeqLen, s.cfg.Hidden))
}

// view reslices a capacity-sized buffer to the batch's live row count
// without allocating: the header is reused and Data keeps its backing
// array's capacity.
func view(m *tensor.Matrix, rows int) *tensor.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// InferForward runs the encoder forward pass without building an autograd
// tape, writing every intermediate into the scratch arena. The returned
// hidden-state matrix ([batch.Tokens(), Hidden]) is owned by the scratch
// and valid until its next use. Results are bitwise identical to
// Forward(batch, false, nil).
func (e *Encoder) InferForward(batch Batch, s *InferScratch) (*tensor.Matrix, error) {
	if s == nil {
		return nil, fmt.Errorf("model: InferForward needs a scratch arena")
	}
	if s.cfg != e.cfg {
		return nil, fmt.Errorf("model: scratch built for %+v, encoder is %+v", s.cfg, e.cfg)
	}
	if s.prec.Low() {
		return nil, fmt.Errorf("model: scratch is %s; use InferForward32", s.prec)
	}
	if err := batch.Validate(e.cfg.VocabSize, e.cfg.MaxSeqLen); err != nil {
		return nil, err
	}
	if batch.Size() == 0 {
		return nil, fmt.Errorf("model: empty batch")
	}
	s.grow(batch.Tokens())
	T := batch.Tokens()
	x := view(s.x, T)
	q := view(s.q, T)
	k := view(s.k, T)
	v := view(s.v, T)
	attn := view(s.attn, T)
	resid := view(s.resid, T)
	ff := view(s.ff, T)

	// Embeddings: token row + position row, then the embedding LayerNorm.
	tok := e.TokEmb.W.Val
	pos := e.PosEmb.W.Val
	row := 0
	for _, l := range batch.Lens {
		for p := 0; p < l; p++ {
			dst := x.Row(row)
			copy(dst, tok.Row(batch.IDs[row]))
			prow := pos.Row(p)
			for j, pv := range prow {
				dst[j] += pv
			}
			row++
		}
	}
	tensor.InferAddLayerNormInto(x, nil, e.EmbNorm.Gamma.Val, e.EmbNorm.Beta.Val, e.EmbNorm.Eps, x)

	for _, blk := range e.Blocks {
		tensor.InferLinearInto(x, blk.WQ.W.Val, blk.WQ.B.Val, q)
		tensor.InferLinearInto(x, blk.WK.W.Val, blk.WK.B.Val, k)
		tensor.InferLinearInto(x, blk.WV.W.Val, blk.WV.B.Val, v)
		tensor.InferAttentionInto(q, k, v, e.cfg.Heads, batch.Lens, s.scores, s.work, attn)
		tensor.InferLinearInto(attn, blk.WO.W.Val, blk.WO.B.Val, resid)
		tensor.InferAddLayerNormInto(x, resid, blk.AttnNorm.Gamma.Val, blk.AttnNorm.Beta.Val, blk.AttnNorm.Eps, x)

		tensor.InferLinearInto(x, blk.FF1.W.Val, blk.FF1.B.Val, ff)
		tensor.InferGELUInPlace(ff)
		tensor.InferLinearInto(ff, blk.FF2.W.Val, blk.FF2.B.Val, resid)
		tensor.InferAddLayerNormInto(x, resid, blk.FFNorm.Gamma.Val, blk.FFNorm.Beta.Val, blk.FFNorm.Eps, x)
	}
	return x, nil
}

// InferEmbedInto mean-pools the tape-free hidden states into dst rows
// [dstRow, dstRow+batch.Size()) — the inference-path equivalent of
// MeanPoolTensor for one batch. The forward pass runs at the scratch's
// precision rung; dst rows are always canonical float64, so downstream
// consumers (detector heads) never see precision.
func (e *Encoder) InferEmbedInto(batch Batch, s *InferScratch, dst *tensor.Matrix, dstRow int) error {
	if s != nil && s.prec.Low() {
		h, err := e.InferForward32(batch, s)
		if err != nil {
			return err
		}
		tensor.InferMeanPoolInto32(h, batch.Lens, dst, dstRow)
		return nil
	}
	h, err := e.InferForward(batch, s)
	if err != nil {
		return err
	}
	tensor.InferMeanPoolInto(h, batch.Lens, dst, dstRow)
	return nil
}

// InferCLSInto writes each sequence's [CLS] hidden state into dst rows
// [dstRow, dstRow+batch.Size()) — the inference-path equivalent of
// CLSTensor for one batch. Like InferEmbedInto it runs at the scratch's
// precision and widens into the float64 dst.
func (e *Encoder) InferCLSInto(batch Batch, s *InferScratch, dst *tensor.Matrix, dstRow int) error {
	if dst.Cols != e.cfg.Hidden || dstRow < 0 || dstRow+batch.Size() > dst.Rows {
		return fmt.Errorf("model: InferCLSInto dst %dx%d cannot hold %d rows at %d",
			dst.Rows, dst.Cols, batch.Size(), dstRow)
	}
	if s != nil && s.prec.Low() {
		h, err := e.InferForward32(batch, s)
		if err != nil {
			return err
		}
		off := 0
		for i, l := range batch.Lens {
			src := h.Row(off)
			out := dst.Row(dstRow + i)
			for j, v := range src {
				out[j] = float64(v)
			}
			off += l
		}
		return nil
	}
	h, err := e.InferForward(batch, s)
	if err != nil {
		return err
	}
	off := 0
	for i, l := range batch.Lens {
		copy(dst.Row(dstRow+i), h.Row(off))
		off += l
	}
	return nil
}
