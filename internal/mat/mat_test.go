package mat

import (
	"math"
	"testing"
	"testing/quick"

	"iotaxo/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormAt(0, 1)
	}
	return m
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := randomMatrix(r, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	c := Mul(a, id)
	for i := range a.Data {
		if !almostEq(c.Data[i], a.Data[i], 1e-12) {
			t.Fatal("A*I != A")
		}
	}
}

func TestMulAssociativeWithVec(t *testing.T) {
	// (A*B)*x == A*(B*x)
	r := rng.New(2)
	a := randomMatrix(r, 5, 6)
	b := randomMatrix(r, 6, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = r.Norm()
	}
	left := MulVec(Mul(a, b), x)
	right := MulVec(a, MulVec(b, x))
	for i := range left {
		if !almostEq(left[i], right[i], 1e-9) {
			t.Fatalf("associativity violated at %d: %v vs %v", i, left[i], right[i])
		}
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Force the parallel path with a big product and compare to a naive
	// triple loop.
	r := rng.New(3)
	a := randomMatrix(r, 140, 50)
	b := randomMatrix(r, 50, 40)
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		t.Fatal("product too small to take the parallel path")
	}
	got := Mul(a, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if !almostEq(got.At(i, j), s, 1e-9) {
				t.Fatalf("parallel Mul mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 3, 5)
	at := a.T()
	if at.Rows != 5 || at.Cols != 3 {
		t.Fatalf("transpose shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose element mismatch")
			}
		}
	}
	// (A^T)^T == A
	att := at.T()
	for i := range a.Data {
		if a.Data[i] != att.Data[i] {
			t.Fatal("double transpose != identity")
		}
	}
}

func TestDotAxpyScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 || y[2] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestAddBias(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	AddBias(m, []float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Errorf("AddBias = %v", m.Data)
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix: A = M^T M + I.
	r := rng.New(5)
	mm := randomMatrix(r, 6, 6)
	a := Mul(mm.T(), mm)
	for i := 0; i < 6; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = r.Norm()
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(l, b)
	ax := MulVec(a, x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-8) {
			t.Fatalf("A*x != b at %d: %v vs %v", i, ax[i], b[i])
		}
	}
}

func TestCholeskyFactorization(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := Mul(l, l.T())
	for i := range a.Data {
		if !almostEq(llt.Data[i], a.Data[i], 1e-12) {
			t.Fatal("L*L^T != A")
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Error("Cholesky accepted a non-square matrix")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVecProperty(t *testing.T) {
	// MulVec distributes over vector addition.
	r := rng.New(6)
	err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		rows, cols := 1+rr.Intn(8), 1+rr.Intn(8)
		a := randomMatrix(rr, rows, cols)
		x := make([]float64, cols)
		y := make([]float64, cols)
		for i := range x {
			x[i], y[i] = rr.Norm(), rr.Norm()
		}
		sum := make([]float64, cols)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		lhs := MulVec(a, sum)
		ax, ay := MulVec(a, x), MulVec(a, y)
		for i := range lhs {
			if !almostEq(lhs[i], ax[i]+ay[i], 1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul128(b *testing.B) {
	r := rng.New(1)
	x := randomMatrix(r, 128, 128)
	y := randomMatrix(r, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
