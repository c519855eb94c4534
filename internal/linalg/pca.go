package linalg

import (
	"fmt"
	"math"

	"clmids/internal/tensor"
)

// PCAOptions selects how many principal components to keep. Exactly one of
// the fields should be set; when both are zero, ComponentsFrac defaults to
// 0.95 (the paper keeps 95% of components for reconstruction-based tuning).
type PCAOptions struct {
	// Components keeps a fixed number of leading components.
	Components int
	// ComponentsFrac keeps ceil(frac · dim) leading components.
	ComponentsFrac float64
}

// PCA is a fitted principal-component model. Reconstruction error of an
// embedding f(t) is Eq. (1): ‖WᵀW·(f(t)−μ) − (f(t)−μ)‖², where the rows of
// W are the kept principal axes.
type PCA struct {
	// Mean is the per-dimension training mean μ (length Dim).
	Mean []float64
	// W is the projection matrix, [Kept, Dim]; rows are orthonormal
	// principal axes.
	W *tensor.Matrix
	// Eigenvalues holds all Dim eigenvalues of the covariance, descending.
	Eigenvalues []float64
}

// Dim returns the embedding dimensionality.
func (p *PCA) Dim() int { return p.W.Cols }

// Kept returns the number of retained components.
func (p *PCA) Kept() int { return p.W.Rows }

// FitPCA fits a PCA on the rows of x (one embedding per row).
func FitPCA(x *tensor.Matrix, opts PCAOptions) (*PCA, error) {
	n, d := x.Rows, x.Cols
	if n < 2 {
		return nil, fmt.Errorf("linalg: PCA needs at least 2 rows, got %d", n)
	}
	kept, err := resolveKept(d, opts)
	if err != nil {
		return nil, err
	}

	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	centered := tensor.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		src := x.Row(i)
		dst := centered.Row(i)
		for j, v := range src {
			dst[j] = v - mean[j]
		}
	}

	cov := tensor.NewMatrix(d, d)
	tensor.MatMulATBInto(centered, centered, cov)
	cov.ScaleInPlace(1 / float64(n-1))

	vals, vecs, err := SymEig(cov)
	if err != nil {
		return nil, err
	}
	w := tensor.NewMatrix(kept, d)
	for c := 0; c < kept; c++ {
		for r := 0; r < d; r++ {
			w.Set(c, r, vecs.At(r, c)) // row c of W = eigenvector c
		}
	}
	return &PCA{Mean: mean, W: w, Eigenvalues: vals}, nil
}

func resolveKept(dim int, opts PCAOptions) (int, error) {
	switch {
	case opts.Components > 0 && opts.ComponentsFrac > 0:
		return 0, fmt.Errorf("linalg: set only one of Components and ComponentsFrac")
	case opts.Components > 0:
		if opts.Components > dim {
			return 0, fmt.Errorf("linalg: %d components exceed dimension %d", opts.Components, dim)
		}
		return opts.Components, nil
	default:
		frac := opts.ComponentsFrac
		if frac == 0 {
			frac = 0.95
		}
		if frac < 0 || frac > 1 {
			return 0, fmt.Errorf("linalg: ComponentsFrac %v outside [0,1]", frac)
		}
		kept := int(math.Ceil(frac * float64(dim)))
		if kept < 1 {
			kept = 1
		}
		return kept, nil
	}
}

// Project maps an embedding into the kept-component space (length Kept).
func (p *PCA) Project(row []float64) []float64 {
	d := p.Dim()
	if len(row) != d {
		panic(fmt.Sprintf("linalg: Project dim %d, want %d", len(row), d))
	}
	out := make([]float64, p.Kept())
	for c := 0; c < p.Kept(); c++ {
		wrow := p.W.Row(c)
		s := 0.0
		for j, v := range row {
			s += wrow[j] * (v - p.Mean[j])
		}
		out[c] = s
	}
	return out
}

// ReconstructionError computes Eq. (1) for a single embedding: the squared
// distance between the centered vector and its projection back from the
// kept-component subspace.
func (p *PCA) ReconstructionError(row []float64) float64 {
	d := p.Dim()
	if len(row) != d {
		panic(fmt.Sprintf("linalg: ReconstructionError dim %d, want %d", len(row), d))
	}
	z := p.Project(row)
	// residual = centered - Wᵀz ; error = ‖residual‖²
	err := 0.0
	for j := 0; j < d; j++ {
		rec := 0.0
		for c := 0; c < p.Kept(); c++ {
			rec += p.W.At(c, j) * z[c]
		}
		r := (row[j] - p.Mean[j]) - rec
		err += r * r
	}
	return err
}

// ReconstructionErrors computes Eq. (1) for every row of x.
func (p *PCA) ReconstructionErrors(x *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = p.ReconstructionError(x.Row(i))
	}
	return out
}

// ResidualOperator returns M = WᵀW − I, the [Dim, Dim] linear operator whose
// application to a centered embedding gives the (negated) reconstruction
// residual. Reconstruction-based tuning (Eq. 2) differentiates through
// ‖M·(f(t)−μ)‖², so the operator is exposed as a plain matrix for use as a
// constant in the autograd graph.
func (p *PCA) ResidualOperator() *tensor.Matrix {
	d := p.Dim()
	m := tensor.NewMatrix(d, d)
	tensor.MatMulATBInto(p.W, p.W, m) // WᵀW
	for i := 0; i < d; i++ {
		m.Set(i, i, m.At(i, i)-1)
	}
	return m
}
