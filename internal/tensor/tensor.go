package tensor

import (
	"fmt"
)

// Tensor is a node on the autograd tape: a matrix value plus, when gradients
// are required, an accumulated gradient and a closure that pushes the
// gradient to the node's parents.
type Tensor struct {
	// Val holds the node's value.
	Val *Matrix
	// Grad accumulates dLoss/dVal; allocated lazily.
	Grad *Matrix

	needGrad bool
	op       string
	parents  []*Tensor
	back     func()
}

// Var wraps a matrix as a differentiable leaf (a parameter or an input that
// needs gradients).
func Var(m *Matrix) *Tensor { return &Tensor{Val: m, needGrad: true, op: "var"} }

// Const wraps a matrix as a non-differentiable leaf.
func Const(m *Matrix) *Tensor { return &Tensor{Val: m, op: "const"} }

// NeedsGrad reports whether gradients flow into this tensor.
func (t *Tensor) NeedsGrad() bool { return t.needGrad }

// Op returns the name of the operation that produced the tensor.
func (t *Tensor) Op() string { return t.op }

// Rows and Cols expose the value's shape.
func (t *Tensor) Rows() int { return t.Val.Rows }

// Cols returns the number of columns of the value.
func (t *Tensor) Cols() int { return t.Val.Cols }

// Item returns the single element of a 1x1 tensor.
func (t *Tensor) Item() float64 {
	if t.Val.Rows != 1 || t.Val.Cols != 1 {
		panic(fmt.Sprintf("tensor: Item on %dx%d tensor", t.Val.Rows, t.Val.Cols))
	}
	return t.Val.Data[0]
}

// ensureGrad allocates the gradient buffer on first use.
func (t *Tensor) ensureGrad() *Matrix {
	if t.Grad == nil {
		t.Grad = NewMatrix(t.Val.Rows, t.Val.Cols)
	}
	return t.Grad
}

// ZeroGrad clears the accumulated gradient (keeps the buffer).
func (t *Tensor) ZeroGrad() {
	if t.Grad != nil {
		t.Grad.Zero()
	}
}

// newNode constructs an interior tape node. The node requires gradients iff
// any parent does; back is only invoked in that case.
func newNode(op string, val *Matrix, back func(), parents ...*Tensor) *Tensor {
	need := false
	for _, p := range parents {
		if p != nil && p.needGrad {
			need = true
			break
		}
	}
	t := &Tensor{Val: val, op: op, parents: parents, needGrad: need}
	if need {
		t.back = back
	}
	return t
}

// Backward runs reverse-mode differentiation from t, which must be a 1x1
// scalar (a loss). Gradients accumulate into every reachable tensor with
// NeedsGrad; call ZeroGrad on parameters between steps.
func (t *Tensor) Backward() error {
	if t.Val.Rows != 1 || t.Val.Cols != 1 {
		return fmt.Errorf("tensor: Backward requires a scalar, got %dx%d", t.Val.Rows, t.Val.Cols)
	}
	if !t.needGrad {
		return fmt.Errorf("tensor: Backward on a tensor with no gradient path")
	}
	order := topoSort(t)
	t.ensureGrad().Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
	return nil
}

// topoSort returns the reachable subgraph in topological order
// (parents before children) using an iterative DFS.
func topoSort(root *Tensor) []*Tensor {
	type frame struct {
		node *Tensor
		next int
	}
	var order []*Tensor
	visited := make(map[*Tensor]bool)
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p != nil && p.needGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}

// Detach returns a constant copy of t's value, cutting the graph.
func (t *Tensor) Detach() *Tensor { return Const(t.Val.Clone()) }
