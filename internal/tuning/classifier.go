package tuning

import (
	"fmt"
	"math"
	"math/rand"

	"clmids/internal/anomaly"
	"clmids/internal/bpe"
	"clmids/internal/model"
	"clmids/internal/nn"
	"clmids/internal/tensor"
)

// ClassifierConfig controls classification-based tuning (§IV-B).
type ClassifierConfig struct {
	// HeadHidden is the MLP hidden width; 0 uses the encoder hidden size.
	HeadHidden int
	// LR is the AdamW learning rate. The paper uses 5e-5 for BERT-base;
	// small encoders tolerate (and need) more. Default 1e-3.
	LR float64
	// Epochs over the labeled set (paper: 5).
	Epochs int
	// BatchSize in lines. Default 32.
	BatchSize int
	// MinPosFrac oversamples positive lines so each epoch sees at least
	// this fraction of positives; intrusions are rare, and without it the
	// head collapses to the majority class. Default 0.25; set negative to
	// disable.
	MinPosFrac float64
	// MeanPoolFeatures switches the head input from the [CLS] hidden state
	// (the paper's probing setup) to mean-pooled token states. Small
	// encoders trained briefly have weak [CLS] summaries, and mean pooling
	// recovers most of the gap; the paper-scale configuration keeps CLS.
	MeanPoolFeatures bool
	// Seed drives initialization, shuffling, and oversampling.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultClassifierConfig mirrors the paper's recipe adapted to small
// encoders.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{
		LR:         1e-3,
		Epochs:     5,
		BatchSize:  32,
		MinPosFrac: 0.25,
		Seed:       1,
	}
}

func (c ClassifierConfig) withDefaults(encHidden int) ClassifierConfig {
	if c.HeadHidden <= 0 {
		c.HeadHidden = encHidden
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MinPosFrac == 0 {
		c.MinPosFrac = 0.25
	}
	return c
}

// Classifier is a trained classification-based tuner: frozen backbone plus
// a two-layer perceptron over the [CLS] embedding (Kaiming-initialized, as
// in §V). Features are standardized with training statistics before the
// head: frozen-backbone [CLS] activations have tiny per-dimension variance,
// and an unconditioned head trains poorly on them.
//
// The backbone is frozen by construction, so the classifier holds a
// persistent memoizing inference engine: repeated lines in a production
// stream skip the encoder and the head. Score and ScoreFeatures never touch
// the autograd tape and are safe for concurrent use.
type Classifier struct {
	engine   *Engine
	head     *nn.MLP
	std      *anomaly.Standardizer
	meanPool bool
}

var (
	_ Scorer       = (*Classifier)(nil)
	_ Replicable   = (*Classifier)(nil)
	_ CacheStatser = (*Classifier)(nil)
)

// Replicate returns an independent replica sharing the frozen backbone,
// trained head, and standardizer; only the engine (scratch pool + score
// memo) is replicated. Replicas score byte-identically and concurrently.
func (c *Classifier) Replicate() Scorer {
	return &Classifier{engine: c.engine.Clone(), head: c.head, std: c.std, meanPool: c.meanPool}
}

// CacheStats snapshots the serving engine's score-memo counters.
func (c *Classifier) CacheStats() CacheStats { return c.engine.CacheStats() }

// TrainClassifier tunes the head on (lines, labels) with the backbone
// frozen. Because the backbone never changes, [CLS] features are extracted
// once and the head is trained on the cached features — the exact same
// optimization as backpropagating through a frozen encoder, at a fraction
// of the cost.
func TrainClassifier(enc *model.Encoder, tok *bpe.Tokenizer, lines []string, labels []bool, cfg ClassifierConfig) (*Classifier, error) {
	positives, err := checkSupervision(lines, labels)
	if err != nil {
		return nil, err
	}
	c := cfg.withDefaults(enc.Config().Hidden)
	rng := rand.New(rand.NewSource(c.Seed))

	engine := NewEngine(enc, tok, DefaultEngineConfig())
	feats, err := c.features(engine, lines)
	if err != nil {
		return nil, err
	}
	std := anomaly.FitStandardizer(feats)
	for i := 0; i < feats.Rows; i++ {
		copy(feats.Row(i), std.Apply(feats.Row(i)))
	}

	head := nn.NewMLP(enc.Config().Hidden, c.HeadHidden, 2, rng)
	opt := nn.NewAdamW(head.Params(), c.LR, 0.01)

	// Build the (possibly oversampled) index list per epoch.
	posIdx := make([]int, 0, positives)
	for i, y := range labels {
		if y {
			posIdx = append(posIdx, i)
		}
	}
	baseIdx := make([]int, len(lines))
	for i := range baseIdx {
		baseIdx[i] = i
	}

	for epoch := 0; epoch < c.Epochs; epoch++ {
		idx := append([]int(nil), baseIdx...)
		if c.MinPosFrac > 0 {
			want := int(c.MinPosFrac * float64(len(lines)))
			for extra := positives; extra < want; extra++ {
				idx = append(idx, posIdx[rng.Intn(len(posIdx))])
			}
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

		sum, batches := 0.0, 0
		for at := 0; at < len(idx); at += c.BatchSize {
			end := at + c.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			rows := idx[at:end]
			x := tensor.NewMatrix(len(rows), feats.Cols)
			ys := make([]int, len(rows))
			for i, r := range rows {
				copy(x.Row(i), feats.Row(r))
				if labels[r] {
					ys[i] = 1
				}
			}
			logits := head.Forward(tensor.Const(x))
			loss := tensor.CrossEntropy(logits, ys, -100)
			if err := loss.Backward(); err != nil {
				return nil, fmt.Errorf("tuning: classifier backward: %w", err)
			}
			nn.ClipGradNorm(head.Params(), 1.0)
			opt.Step()
			sum += loss.Item()
			batches++
		}
		if c.Logf != nil {
			c.Logf("classifier: epoch %d/%d loss %.4f", epoch+1, c.Epochs, sum/float64(batches))
		}
	}
	return &Classifier{engine: engine, head: head, std: std, meanPool: c.MeanPoolFeatures}, nil
}

// features extracts the head inputs per the configuration.
func (c ClassifierConfig) features(engine *Engine, lines []string) (*tensor.Matrix, error) {
	if c.MeanPoolFeatures {
		return engine.EmbedLines(lines)
	}
	return engine.CLSLines(lines)
}

// Score implements Scorer: the softmax probability of the intrusion class.
func (c *Classifier) Score(lines []string) ([]float64, error) {
	feat := FeatureCLS
	if c.meanPool {
		feat = FeatureMean
	}
	return c.engine.Score(lines, feat, c.ScoreFeatures)
}

// ScoreFeatures scores pre-extracted raw [CLS] features (standardization is
// applied internally); the experiment harness uses this to avoid
// re-encoding shared test sets.
func (c *Classifier) ScoreFeatures(feats *tensor.Matrix) []float64 {
	z := tensor.NewMatrix(feats.Rows, feats.Cols)
	for i := 0; i < feats.Rows; i++ {
		copy(z.Row(i), c.std.Apply(feats.Row(i)))
	}
	logits := headLogits(c.head, z)
	out := make([]float64, feats.Rows)
	for i := 0; i < feats.Rows; i++ {
		row := logits.Row(i)
		// Two-class softmax probability of class 1, numerically stable.
		m := math.Max(row[0], row[1])
		e0 := math.Exp(row[0] - m)
		e1 := math.Exp(row[1] - m)
		out[i] = e1 / (e0 + e1)
	}
	return out
}

// headLogits runs the trained two-layer head forward without building an
// autograd graph: inference needs no gradients, and keeping the scoring
// path off the tape makes it allocation-light and safe for concurrent use.
// The arithmetic is identical to nn.MLP.Forward with the ReLU activation
// NewMLP installs (same matmul kernel, same bias-add and clamp order).
func headLogits(head *nn.MLP, x *tensor.Matrix) *tensor.Matrix {
	h := tensor.MatMul(x, head.L1.W.Val)
	b1 := head.L1.B.Val.Row(0)
	for i := 0; i < h.Rows; i++ {
		row := h.Row(i)
		for j := range row {
			row[j] += b1[j]
			if row[j] < 0 {
				row[j] = 0
			}
		}
	}
	out := tensor.MatMul(h, head.L2.W.Val)
	b2 := head.L2.B.Val.Row(0)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += b2[j]
		}
	}
	return out
}
