// Package linalg provides the dense linear algebra the detectors need:
// symmetric eigendecomposition (cyclic Jacobi), a thin SVD built on it, and
// principal component analysis with reconstruction errors — Eq. (1) of the
// paper. Dimensions are embedding-sized (tens to hundreds), where Jacobi is
// simple, numerically robust, and fast enough.
package linalg

import (
	"fmt"
	"math"
	"sort"

	"clmids/internal/tensor"
)

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence for
// embedding-sized matrices takes well under 20 sweeps.
const maxJacobiSweeps = 64

// SymEig computes the eigendecomposition of a symmetric matrix.
// It returns the eigenvalues in descending order and a matrix whose column
// i is the unit eigenvector for eigenvalue i. The input is not modified.
func SymEig(a *tensor.Matrix) ([]float64, *tensor.Matrix, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, fmt.Errorf("linalg: SymEig needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("linalg: SymEig on empty matrix")
	}
	const asymTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > asymTol*(1+math.Abs(a.At(i, j))) {
				return nil, nil, fmt.Errorf("linalg: matrix is not symmetric at (%d,%d)", i, j)
			}
		}
	}

	A := a.Clone()
	V := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		V.Set(i, i, 1)
	}

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := A.At(i, j)
				off += v * v
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := A.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := A.At(p, p), A.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				for k := 0; k < n; k++ {
					if k == p || k == q {
						continue
					}
					akp, akq := A.At(k, p), A.At(k, q)
					A.Set(k, p, c*akp-s*akq)
					A.Set(p, k, c*akp-s*akq)
					A.Set(k, q, s*akp+c*akq)
					A.Set(q, k, s*akp+c*akq)
				}
				A.Set(p, p, app-t*apq)
				A.Set(q, q, aqq+t*apq)
				A.Set(p, q, 0)
				A.Set(q, p, 0)
				for k := 0; k < n; k++ {
					vkp, vkq := V.At(k, p), V.At(k, q)
					V.Set(k, p, c*vkp-s*vkq)
					V.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = A.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })

	sortedVals := make([]float64, n)
	sortedVecs := tensor.NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, V.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Cosine returns the cosine similarity of two vectors; zero vectors yield 0.
func Cosine(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
