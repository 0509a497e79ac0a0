// Package mat provides the small dense linear-algebra kernels the neural
// network and ridge regression need: row-major float64 matrices, matrix
// multiplication (with an optional parallel path for large products),
// Cholesky solves, and elementwise helpers.
package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Resized returns m reshaped to rows x cols, reusing its backing array when
// capacity allows (and growing it otherwise). The contents are unspecified
// afterwards — callers overwrite them (MulInto clears, CopyRows copies).
// A nil m allocates fresh; hot loops pass the previous call's matrix back
// in, so steady state allocates nothing.
func Resized(m *Matrix, rows, cols int) *Matrix {
	if m == nil {
		return New(rows, cols)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// CopyRows copies row slices into m, which must already be len(rows) x
// len(rows[i]) (see Resized); the allocation-free counterpart of FromRows.
func CopyRows(m *Matrix, rows [][]float64) {
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns a*b. Panics on dimension mismatch. Products of at least
// parallelThreshold multiply-adds are computed with a goroutine per row
// block.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	mulInto(out, a, b)
	return out
}

// MulInto computes out = a*b into a caller-owned matrix (overwriting it),
// so hot loops can reuse buffers instead of allocating per product.
func MulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto output is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	clear(out.Data)
	mulInto(out, a, b)
}

// parallelThreshold is the product size, in multiply-adds, from which
// mulInto splits the rows across goroutines. A fork-join is not free (about
// 25 µs on the 2-CPU VM this was set on, the arithmetic of some 80 000
// multiply-adds; uq's BenchmarkMemberFanOut shows it), so the mark sits
// where a serving batch's products (32 rows × 101 features × 56 units =
// 181k) stay on the caller while training mini-batches and frames (128 rows
// and up of the same shape) still fork.
const parallelThreshold = 1 << 18

// mulInto computes out = a*b, where out is already sized.
func mulInto(out, a, b *Matrix) {
	work := a.Rows * b.Cols * a.Cols
	if work >= parallelThreshold && a.Rows > 1 {
		parallelRows(a.Rows, func(lo, hi int) { mulRows(out, a, b, lo, hi) })
		return
	}
	mulRows(out, a, b, 0, a.Rows)
}

// mulRows computes rows [lo, hi) of out = a*b with an ikj loop order that
// streams b rows sequentially (cache-friendly for row-major storage). The
// inner saxpy runs on the platform axpy kernel (SSE2 on amd64), which is
// bit-identical to the scalar loop.
func mulRows(out, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		outRow := out.Data[i*n : (i+1)*n]
		for k := 0; k < a.Cols; k++ {
			aik := a.Data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			bRow := b.Data[k*n : (k+1)*n]
			axpy(aik, bRow, outRow)
		}
	}
}

// parallelRows splits [0, n) into contiguous chunks across GOMAXPROCS
// workers and invokes fn for each chunk concurrently.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulATB returns aᵀ*b without materializing the transpose. Each output
// element accumulates over a's rows in ascending order with the same
// zero-skip as mulRows, so the result is bit-identical to Mul(a.T(), b) —
// minus the transpose allocation and copy. This is the dW = inputᵀ*grad
// shape of backprop.
func MulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MulATBInto(out, a, b)
	return out
}

// MulATBInto is MulATB into a caller-owned matrix (overwriting it).
func MulATBInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATBInto dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATBInto output is %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	clear(out.Data)
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		aRow := a.Row(k)
		bRow := b.Row(k)
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			axpy(av, bRow, out.Data[i*n:(i+1)*n])
		}
	}
}

// TInto writes m's transpose into a caller-owned matrix.
func TInto(out, m *Matrix) {
	if out.Rows != m.Cols || out.Cols != m.Rows {
		panic(fmt.Sprintf("mat: TInto output is %dx%d, want %dx%d", out.Rows, out.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
}

// MulVec returns a * x for a vector x of length a.Cols.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	axpy(alpha, x, y)
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddBias adds vector b to every row of m in place (broadcast add).
func AddBias(m *Matrix, b []float64) {
	if len(b) != m.Cols {
		panic("mat: AddBias dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
}

// Cholesky factors a symmetric positive-definite matrix a into L*L^T and
// returns L (lower triangular). It returns an error if a is not square or
// not positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("mat: matrix not positive definite at pivot %d (%v)", i, sum)
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves a*x = b given the Cholesky factor L of a.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L*y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: L^T*x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
