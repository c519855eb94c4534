// Package anomaly implements the two detection heads that operate in the
// command-line embedding space: PCA reconstruction error (§III, Eq. 1)
// and the supervised, noise-robust retrieval method of §IV-D. Higher
// scores mean more anomalous / more likely intrusion.
package anomaly

import (
	"math"

	"clmids/internal/linalg"
	"clmids/internal/tensor"
)

// PCADetector scores by PCA reconstruction error (Eq. 1). Scoring after
// Fit is read-only, so one fitted detector is safely shared across
// concurrent scorer replicas (tuning.PCAScorer.Replicate does).
type PCADetector struct {
	// Opts selects the retained components; the zero value keeps 95%.
	Opts linalg.PCAOptions

	pca *linalg.PCA
}

// Fit fits the PCA on embeddings (one row per line).
func (d *PCADetector) Fit(x *tensor.Matrix) error {
	p, err := linalg.FitPCA(x, d.Opts)
	if err != nil {
		return err
	}
	d.pca = p
	return nil
}

// Score rates a single embedding by its reconstruction error.
func (d *PCADetector) Score(row []float64) float64 {
	if d.pca == nil {
		panic("anomaly: PCADetector.Score before Fit")
	}
	return d.pca.ReconstructionError(row)
}

// Scores applies Score to every row of x.
func (d *PCADetector) Scores(x *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = d.Score(x.Row(i))
	}
	return out
}

// PCA exposes the fitted model (nil before Fit); reconstruction-based
// tuning reuses it.
func (d *PCADetector) PCA() *linalg.PCA { return d.pca }

// Standardizer z-scores embeddings per dimension; the classifier head
// fits it over its training embeddings. Apply allocates its output
// and never mutates the fitted statistics, so one fitted Standardizer is
// safely shared across concurrent scorer replicas.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer estimates per-dimension statistics.
func FitStandardizer(x *tensor.Matrix) *Standardizer {
	d := x.Cols
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			dlt := v - s.Mean[j]
			s.Std[j] += dlt * dlt
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(x.Rows))
		if s.Std[j] < 1e-9 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply standardizes one row into a new slice.
func (s *Standardizer) Apply(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}
