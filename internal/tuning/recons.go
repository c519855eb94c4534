package tuning

import (
	"fmt"
	"math/rand"

	"clmids/internal/bpe"
	"clmids/internal/linalg"
	"clmids/internal/model"
	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// ReconsConfig controls reconstruction-based tuning (§IV-A).
type ReconsConfig struct {
	// Rounds is the number of alternations between refitting W (PCA) and
	// tuning f(·). The paper reports five suffice.
	Rounds int
	// Epochs of f-tuning per round. Default 1.
	Epochs int
	// LR for the encoder's AdamW. Default 1e-4.
	LR float64
	// BatchSize in lines. Default 16.
	BatchSize int
	// PosPerBatch forces at least this many positive lines into every
	// batch — Eq. (2)'s numerator is otherwise zero and its log undefined.
	// Default 2.
	PosPerBatch int
	// PCAFrac is the fraction of components kept (paper: 0.95).
	PCAFrac float64
	// FitWOnAll fits the PCA projection on all training embeddings instead
	// of benign-labeled ones only. The paper is silent on which embeddings
	// feed the W refit; fitting on benign-labeled lines keeps W from
	// capturing the malicious directions Eq. (2) is pushing away from the
	// subspace, which is what makes in-box errors uniformly large.
	FitWOnAll bool
	// Seed drives shuffling and dropout.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultReconsConfig mirrors the paper's recipe.
func DefaultReconsConfig() ReconsConfig {
	return ReconsConfig{
		Rounds:      5,
		Epochs:      1,
		LR:          1e-4,
		BatchSize:   16,
		PosPerBatch: 2,
		PCAFrac:     0.95,
		Seed:        1,
	}
}

func (c ReconsConfig) withDefaults() ReconsConfig {
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.LR <= 0 {
		c.LR = 1e-4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.PosPerBatch <= 0 {
		c.PosPerBatch = 2
	}
	if c.PCAFrac <= 0 || c.PCAFrac > 1 {
		c.PCAFrac = 0.95
	}
	return c
}

// ReconsTuner is a trained reconstruction-based detector: the tuned
// encoder f(·) and the final PCA model W. Training is the only phase that
// mutates f; once TrainReconstruction returns, the encoder is frozen, so
// the tuner scores through a persistent memoizing inference engine and
// Score is safe for concurrent use.
type ReconsTuner struct {
	engine *Engine
	pca    *linalg.PCA
}

var (
	_ Scorer       = (*ReconsTuner)(nil)
	_ Replicable   = (*ReconsTuner)(nil)
	_ CacheStatser = (*ReconsTuner)(nil)
)

// Replicate returns an independent replica sharing the tuned (now frozen)
// encoder and the fitted PCA; only the engine is replicated, so replicas
// score byte-identically without re-running the §IV-A alternation.
func (r *ReconsTuner) Replicate() Scorer {
	return &ReconsTuner{engine: r.engine.Clone(), pca: r.pca}
}

// CacheStats snapshots the serving engine's score-memo counters.
func (r *ReconsTuner) CacheStats() CacheStats { return r.engine.CacheStats() }

// TrainReconstruction runs the alternating optimization of §IV-A.
// It MUTATES enc (the paper fine-tunes f in place); callers wanting to keep
// the pre-trained weights should pass a cloned model.
func TrainReconstruction(enc *model.Encoder, tok *bpe.Tokenizer, lines []string, labels []bool, cfg ReconsConfig) (*ReconsTuner, error) {
	if _, err := checkSupervision(lines, labels); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	params := enc.Params()
	opt := nn.NewAdamW(params, c.LR, 0.0)
	encCfg := enc.Config()

	// Pre-encode token sequences once; masking is not used here.
	seqs := make([][]int, len(lines))
	for i, line := range lines {
		seqs[i] = tok.EncodeForModel(line, encCfg.MaxSeqLen)
	}
	var posIdx, negIdx []int
	for i, y := range labels {
		if y {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}

	// fitLines selects the embeddings the W-step sees.
	fitLines := lines
	if !c.FitWOnAll {
		fitLines = make([]string, 0, len(negIdx))
		for _, i := range negIdx {
			fitLines = append(fitLines, lines[i])
		}
	}

	var pca *linalg.PCA
	for round := 0; round < c.Rounds; round++ {
		// --- W-step: refit the PCA on current embeddings (SVD in the
		// paper; equivalently the covariance eigenbasis here).
		emb, err := EmbedLines(enc, tok, fitLines)
		if err != nil {
			return nil, fmt.Errorf("tuning: round %d embedding: %w", round, err)
		}
		pca, err = linalg.FitPCA(emb, linalg.PCAOptions{ComponentsFrac: c.PCAFrac})
		if err != nil {
			return nil, fmt.Errorf("tuning: round %d PCA: %w", round, err)
		}
		residual := tensor.Const(pca.ResidualOperator()) // symmetric [H,H]
		negMu := tensor.NewMatrix(1, encCfg.Hidden)
		for j, m := range pca.Mean {
			negMu.Data[j] = -m
		}
		negMuT := tensor.Const(negMu)

		// --- f-step: minimize Eq. (2) with W fixed.
		lossSum, batches := 0.0, 0
		for epoch := 0; epoch < c.Epochs; epoch++ {
			rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })
			rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
			posAt := 0
			negPer := c.BatchSize - c.PosPerBatch
			if negPer < 1 {
				negPer = 1
			}
			for at := 0; at < len(negIdx); at += negPer {
				end := at + negPer
				if end > len(negIdx) {
					end = len(negIdx)
				}
				rows := append([]int(nil), negIdx[at:end]...)
				y := make([]float64, 0, len(rows)+c.PosPerBatch)
				for range rows {
					y = append(y, 0)
				}
				for p := 0; p < c.PosPerBatch; p++ {
					rows = append(rows, posIdx[posAt%len(posIdx)])
					y = append(y, 1)
					posAt++
				}
				loss, err := reconsBatchLoss(enc, seqs, rows, y, residual, negMuT, rng)
				if err != nil {
					return nil, fmt.Errorf("tuning: round %d batch: %w", round, err)
				}
				if err := loss.Backward(); err != nil {
					return nil, fmt.Errorf("tuning: round %d backward: %w", round, err)
				}
				nn.ClipGradNorm(params, 1.0)
				opt.Step()
				lossSum += loss.Item()
				batches++
			}
		}
		if c.Logf != nil {
			c.Logf("recons: round %d/%d loss %.4f (kept %d/%d components)",
				round+1, c.Rounds, lossSum/float64(batches), pca.Kept(), pca.Dim())
		}
	}

	// Final W from the final f. Tuning is over, so the tuner can hold a
	// memoizing engine over the now-frozen encoder.
	engine := NewEngine(enc, tok, DefaultEngineConfig())
	emb, err := engine.EmbedLines(fitLines)
	if err != nil {
		return nil, err
	}
	pca, err = linalg.FitPCA(emb, linalg.PCAOptions{ComponentsFrac: c.PCAFrac})
	if err != nil {
		return nil, err
	}
	return &ReconsTuner{engine: engine, pca: pca}, nil
}

// reconsBatchLoss builds Eq. (2) for one batch:
// −log( Σ_i L_i·y_i / Σ_i L_i ), with L_i = ‖M·(f(t_i)−μ)‖².
func reconsBatchLoss(enc *model.Encoder, seqs [][]int, rows []int, y []float64,
	residual, negMu *tensor.Tensor, rng *rand.Rand) (*tensor.Tensor, error) {
	batchSeqs := make([][]int, len(rows))
	for i, r := range rows {
		batchSeqs[i] = seqs[r]
	}
	emb, err := enc.MeanPoolTensor(model.NewBatch(batchSeqs), true, rng)
	if err != nil {
		return nil, err
	}
	centered := tensor.AddRowVec(emb, negMu)
	r := tensor.MatMulT(centered, residual) // M symmetric: rowwise M·(f−μ)
	l := tensor.RowSum(tensor.Mul(r, r))    // [B,1] reconstruction errors

	eps := tensor.NewMatrix(l.Rows(), 1)
	eps.Fill(1e-8)
	lSafe := tensor.Add(l, tensor.Const(eps))

	yMat := tensor.Const(tensor.FromSlice(len(y), 1, append([]float64(nil), y...)))
	num := tensor.SumAll(tensor.Mul(lSafe, yMat))
	den := tensor.SumAll(lSafe)
	return tensor.Scale(tensor.Log(tensor.Div(num, den)), -1), nil
}

// Score implements Scorer: Eq. (1) under the tuned f and final W.
func (r *ReconsTuner) Score(lines []string) ([]float64, error) {
	return r.engine.Score(lines, FeatureMean, r.pca.ReconstructionErrors)
}

// PCA exposes the final fitted projection.
func (r *ReconsTuner) PCA() *linalg.PCA { return r.pca }
