package snacknoc

import (
	"fmt"
	"math"

	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
)

// Context is an execution context (§IV-A2): a workspace in which the
// program declaratively builds one or more dataflow computations, with
// coarse-grained control over their execution. Computations registered
// with GetValue run when the context is passed to Platform.Execute (or
// ExecuteAll, which orders contexts by priority, or ExecuteConcurrent)
// of the platform that made it.
type Context struct {
	platform *Platform
	builder  *dataflow.Builder
	name     string
	priority int
	requests []getRequest
	// err is the first non-finite Scalar, which cannot return it: the
	// context then fails at execute.
	err error
}

// getRequest pairs a requested root value with its user output buffer.
type getRequest struct {
	value *Value
	out   []float64
}

// NewContext creates an empty context on the platform.
func (p *Platform) NewContext() *Context {
	return &Context{
		platform: p,
		builder:  dataflow.NewBuilder(),
		name:     "context",
	}
}

// SetName labels the context in errors and traces.
func (c *Context) SetName(name string) { c.name = name }

// SetPriority sets the scheduling priority used by ExecuteAll; higher
// runs first (§IV-C).
func (c *Context) SetPriority(pri int) { c.priority = pri }

// Value is an opaque handle to an array value inside a context — an
// input or the result of an operation (the RESH of the paper's Fig 8b).
type Value struct {
	ctx  *Context
	node *dataflow.Node
}

// Rows returns the value's row count.
func (v *Value) Rows() int { return v.node.Rows }

// Cols returns the value's column count.
func (v *Value) Cols() int { return v.node.Cols }

func (c *Context) own(v *Value, op string) error {
	if v == nil {
		return fmt.Errorf("snacknoc: %s: nil value", op)
	}
	if v.ctx != c {
		return fmt.Errorf("snacknoc: %s: value belongs to a different context", op)
	}
	return nil
}

// toFixed converts data to Q16.16. A finite value out of range saturates,
// as the datapath does; NaN and ±Inf have no fixed-point value, so they
// are an error rather than whatever Go's float-to-int conversion gives.
func toFixed(op string, data []float64) ([]fixed.Q, error) {
	out := make([]fixed.Q, len(data))
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("snacknoc: %s: element %d is %v, not a finite value", op, i, v)
		}
		out[i] = fixed.FromFloat(v)
	}
	return out, nil
}

// Input creates a rows×cols immediate array from row-major data
// (create_input in the paper's API). Values are converted to the
// platform's Q16.16 fixed-point format; NaN and ±Inf are an error.
func (c *Context) Input(data []float64, rows, cols int) (*Value, error) {
	q, err := toFixed("Input", data)
	if err != nil {
		return nil, err
	}
	n, err := c.builder.Input(q, rows, cols)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// Scalar creates a 1×1 input. A NaN or ±Inf v makes the context fail
// when it executes.
func (c *Context) Scalar(v float64) *Value {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && c.err == nil {
		c.err = fmt.Errorf("snacknoc: Scalar: %v is not a finite value", v)
	}
	return &Value{ctx: c, node: c.builder.Scalar(fixed.FromFloat(v))}
}

// MatMul returns the dense matrix product x·y (create_mult on arrays).
func (c *Context) MatMul(x, y *Value) (*Value, error) {
	if err := c.own(x, "MatMul"); err != nil {
		return nil, err
	}
	if err := c.own(y, "MatMul"); err != nil {
		return nil, err
	}
	n, err := c.builder.MatMul(x.node, y.node)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// Add returns the element-wise sum x + y (create_add).
func (c *Context) Add(x, y *Value) (*Value, error) {
	return c.elementwise("Add", x, y)
}

// Sub returns the element-wise difference x − y.
func (c *Context) Sub(x, y *Value) (*Value, error) {
	return c.elementwise("Sub", x, y)
}

func (c *Context) elementwise(op string, x, y *Value) (*Value, error) {
	if err := c.own(x, op); err != nil {
		return nil, err
	}
	if err := c.own(y, op); err != nil {
		return nil, err
	}
	var n *dataflow.Node
	var err error
	if op == "Add" {
		n, err = c.builder.Add(x.node, y.node)
	} else {
		n, err = c.builder.Sub(x.node, y.node)
	}
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// Scale returns s·x where s is a 1×1 value.
func (c *Context) Scale(s, x *Value) (*Value, error) {
	if err := c.own(s, "Scale"); err != nil {
		return nil, err
	}
	if err := c.own(x, "Scale"); err != nil {
		return nil, err
	}
	n, err := c.builder.Scale(s.node, x.node)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// Reduce returns the 1×1 sum of all elements of x (the Reduction kernel).
func (c *Context) Reduce(x *Value) (*Value, error) {
	if err := c.own(x, "Reduce"); err != nil {
		return nil, err
	}
	n, err := c.builder.Reduce(x.node)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// Dot returns the 1×1 inner product of two equal-length vectors (the
// MAC kernel).
func (c *Context) Dot(x, y *Value) (*Value, error) {
	if err := c.own(x, "Dot"); err != nil {
		return nil, err
	}
	if err := c.own(y, "Dot"); err != nil {
		return nil, err
	}
	n, err := c.builder.Dot(x.node, y.node)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// CSR describes a sparse matrix in compressed-sparse-row form.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// SpMV returns the sparse-matrix × dense-vector product a·x (the SPMV
// kernel). The dense vector's elements travel the NoC as transient data
// tokens shared by every row that references them.
func (c *Context) SpMV(a CSR, x *Value) (*Value, error) {
	if err := c.own(x, "SpMV"); err != nil {
		return nil, err
	}
	val, err := toFixed("SpMV", a.Val)
	if err != nil {
		return nil, err
	}
	sp := &dataflow.Sparse{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: a.RowPtr,
		ColIdx: a.ColIdx,
		Val:    val,
	}
	n, err := c.builder.SpMV(sp, x.node)
	if err != nil {
		return nil, err
	}
	return &Value{ctx: c, node: n}, nil
}

// GetValue registers v as a computation root whose result is written to
// out (row-major) when the context executes — the deferred get_value of
// the paper's API. out must hold at least Rows×Cols values.
func (c *Context) GetValue(v *Value, out []float64) error {
	if err := c.own(v, "GetValue"); err != nil {
		return err
	}
	if v.node.Kind == dataflow.KindInput {
		return fmt.Errorf("snacknoc: GetValue of a plain input; no computation to run")
	}
	if len(out) < v.node.Elems() {
		return fmt.Errorf("snacknoc: output buffer holds %d values, result needs %d",
			len(out), v.node.Elems())
	}
	c.requests = append(c.requests, getRequest{value: v, out: out})
	return nil
}
