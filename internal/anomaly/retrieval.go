package anomaly

import (
	"fmt"
	"sort"

	"clmids/internal/linalg"
	"clmids/internal/tensor"
)

// Retrieval is the paper's retrieval-based detection (§IV-D). The naive kNN
// majority vote fails under label noise (a malicious line whose neighbours
// were all mislabeled benign scores 0), so the modified method scores each
// test line by its average cosine similarity to its k nearest *malicious*
// training neighbours only. The paper uses k = 1 (1NN).
//
// After FitLabeled the index is read-only: Score and ScoreBatch never
// mutate it, so one fitted Retrieval is safely shared by every scorer
// replica of a sharded streaming detector (tuning.Replicable).
type Retrieval struct {
	// K is the number of malicious neighbours averaged; default 1 (paper).
	K int

	malicious *tensor.Matrix
	malNorms  []float64 // linalg.Norm of each malicious row, fixed at fit
	all       *tensor.Matrix
	labels    []bool
}

// NewRetrieval creates a retrieval scorer.
func NewRetrieval(k int) *Retrieval {
	if k <= 0 {
		k = 1
	}
	return &Retrieval{K: k}
}

// Dim returns the embedding dimensionality of the fitted index.
func (r *Retrieval) Dim() int { return r.all.Cols }

// FitLabeled indexes the training embeddings with their (noisy) supervision
// labels; true marks lines the commercial IDS flagged.
func (r *Retrieval) FitLabeled(x *tensor.Matrix, labels []bool) error {
	if x.Rows != len(labels) {
		return fmt.Errorf("anomaly: %d rows but %d labels", x.Rows, len(labels))
	}
	nMal := 0
	for _, l := range labels {
		if l {
			nMal++
		}
	}
	if nMal == 0 {
		return fmt.Errorf("anomaly: retrieval needs at least one malicious-labeled line")
	}
	mal := tensor.NewMatrix(nMal, x.Cols)
	norms := make([]float64, nMal)
	at := 0
	for i, l := range labels {
		if l {
			copy(mal.Row(at), x.Row(i))
			norms[at] = linalg.Norm(mal.Row(at))
			at++
		}
	}
	r.malicious = mal
	r.malNorms = norms
	r.all = x
	r.labels = labels
	return nil
}

// Score implements the modified method: average cosine similarity between
// the test embedding and its K nearest malicious training embeddings.
// Higher means more intrusion-like.
//
// Each similarity is linalg.Cosine's arithmetic, Dot(row_i, q)/(‖row_i‖·‖q‖)
// with a zero norm scoring 0, so scores are bitwise Cosine's; only the norms
// are hoisted: the index norms were computed at fit, the query norm once
// per call. For K ≤ 8 the call does not allocate.
func (r *Retrieval) Score(row []float64) float64 {
	if r.malicious == nil {
		panic("anomaly: Retrieval.Score before FitLabeled")
	}
	k := r.K
	if k > r.malicious.Rows {
		k = r.malicious.Rows
	}
	// Track the k LARGEST similarities.
	var buf [8]float64
	best := buf[:0]
	if k > len(buf) {
		best = make([]float64, 0, k)
	}
	qn := linalg.Norm(row)
	for i, rn := range r.malNorms {
		sim := 0.0
		if rn != 0 && qn != 0 {
			sim = linalg.Dot(r.malicious.Row(i), row) / (rn * qn)
		}
		if len(best) < k {
			best = append(best, sim)
			sort.Float64s(best)
			continue
		}
		if sim > best[0] {
			pos := sort.SearchFloat64s(best, sim)
			copy(best[:pos-1], best[1:pos])
			best[pos-1] = sim
		}
	}
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	return sum / float64(len(best))
}

// ScoreBatch scores every row of x, splitting the rows across GOMAXPROCS
// workers. Each row's kNN scan is independent, so batch scoring
// parallelizes embarrassingly; results are identical to calling Score row
// by row.
func (r *Retrieval) ScoreBatch(x *tensor.Matrix) []float64 {
	if r.malicious == nil {
		panic("anomaly: Retrieval.ScoreBatch before FitLabeled")
	}
	out := make([]float64, x.Rows)
	tensor.ParallelRows(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = r.Score(x.Row(i))
		}
	})
	return out
}

// MajorityVote is the textbook kNN baseline the paper rejects: the verdict
// of the k nearest neighbours (by cosine similarity) among ALL training
// lines, malicious or benign. Exposed so BenchmarkAblationRetrievalNoise
// (paper_bench_test.go) can show why the modification matters under label
// noise.
func (r *Retrieval) MajorityVote(row []float64, k int) bool {
	if r.all == nil {
		panic("anomaly: Retrieval.MajorityVote before FitLabeled")
	}
	if k <= 0 {
		k = 1
	}
	if k > r.all.Rows {
		k = r.all.Rows
	}
	type hit struct {
		sim float64
		lab bool
	}
	best := make([]hit, 0, k)
	for i := 0; i < r.all.Rows; i++ {
		sim := linalg.Cosine(r.all.Row(i), row)
		if len(best) < k {
			best = append(best, hit{sim, r.labels[i]})
			sort.Slice(best, func(a, b int) bool { return best[a].sim < best[b].sim })
			continue
		}
		if sim > best[0].sim {
			best[0] = hit{sim, r.labels[i]}
			sort.Slice(best, func(a, b int) bool { return best[a].sim < best[b].sim })
		}
	}
	votes := 0
	for _, h := range best {
		if h.lab {
			votes++
		}
	}
	return votes*2 > len(best)
}
