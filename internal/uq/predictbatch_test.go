package uq

import (
	"fmt"
	"runtime"
	"testing"

	"iotaxo/internal/nn"
	"iotaxo/internal/rng"
)

// testEnsemble trains a small three-member ensemble of distinct widths on
// n synthetic rows of nf features.
func testEnsemble(tb testing.TB, n, nf int, hidden func(i int) int) (*Ensemble, [][]float64) {
	tb.Helper()
	r := rng.New(3)
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, nf)
		for j := range rows[i] {
			rows[i][j] = r.Norm()
		}
		y[i] = rows[i][0] + 0.5*rows[i][1] + 0.05*r.Norm()
	}
	params := make([]nn.Params, 3)
	for i := range params {
		p := nn.DefaultParams()
		p.Hidden = []int{hidden(i)}
		p.Epochs = 4
		p.Seed = uint64(i + 1)
		params[i] = p
	}
	e, err := TrainEnsemble(params, rows, y, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return e, rows
}

// TestPredictBatchMatchesPredict verifies the batch path decomposes
// identically to the per-row path on both sides of fanOutRows — members in
// line below it, one goroutine each from it on — with the fan-out enabled
// (GOMAXPROCS >= 2) whatever the machine.
func TestPredictBatchMatchesPredict(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	e, rows := testEnsemble(t, 120, 2, func(i int) int { return 8 + 4*i })
	var s BatchScratch // shared, so planes are re-cut as the batch size changes
	for _, n := range []int{1, fanOutRows - 1, fanOutRows, fanOutRows + 1, len(rows)} {
		batch := make([]Prediction, n)
		e.PredictBatchInto(rows[:n], batch, &s)
		for i, row := range rows[:n] {
			if single := e.Predict(row); batch[i] != single {
				t.Fatalf("batch of %d, row %d: batch %+v != single %+v", n, i, batch[i], single)
			}
		}
	}
	if got := e.PredictBatch(rows); len(got) != len(rows) {
		t.Fatalf("batch returned %d predictions for %d rows", len(got), len(rows))
	}
	if got := e.PredictBatch(nil); got != nil {
		t.Errorf("empty batch returned %v", got)
	}
}

// BenchmarkMemberFanOut is the measurement behind fanOutRows: the member
// forwards of one batch in line on the caller against one goroutine per
// member, on members shaped like a served bundle's (101 features, hidden
// widths 24/40/56). "alone" is one caller on an otherwise idle machine,
// "full" one caller per CPU — a serving evaluation's situation when the
// evaluation slots (two by default) keep every CPU busy. Run with -cpu 2 or
// more; README "Evaluation slots" has the table from the 2-CPU box the
// constant was set on. In short: the fan-out costs 7 objects a batch and in
// line allocates nothing; below 12
// rows in line is quicker either way (1 row 4.9 against 6.7 µs, 4 rows 17
// against 27); from 16 rows a caller alone is 10-20 % quicker fanned out,
// while on a full machine in line is level or ahead at every size through
// 256 — what the fan-out can win is bounded by the CPUs left idle. Hence
// 64: a predict request's misses stay in line, a frame does not.
//
// One layer down mat.mulInto has its own fan-out, part of both sides here:
// mat.parallelThreshold is set so that no product of an in-line serving
// batch reaches it (at 65 536 multiply-adds the widest member did at 12
// rows, and 11 -> 12 rows in line went 46 -> 73 µs).
func BenchmarkMemberFanOut(b *testing.B) {
	e, rows := testEnsemble(b, 256, 101, func(i int) int { return 24 + 16*i })
	for _, n := range []int{1, 4, 16, 32, 64, 256} {
		batch := rows[:n]
		// forwards returns one caller's loop body over its own scratch,
		// sized on the whole frame first so that two callers' small planes
		// never share a cache line.
		forwards := func(fanOut bool) func() {
			s := new(BatchScratch)
			e.PredictBatchInto(rows, make([]Prediction, len(rows)), s)
			e.PredictBatchInto(batch, make([]Prediction, n), s)
			if fanOut {
				return func() { e.forwardFanOut(batch, s) }
			}
			return func() { e.forwardInLine(batch, s) }
		}
		for _, mode := range []struct {
			name   string
			fanOut bool
		}{{"inline", false}, {"fanout", true}} {
			b.Run(fmt.Sprintf("alone/%s/n=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				do := forwards(mode.fanOut)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					do()
				}
			})
			b.Run(fmt.Sprintf("full/%s/n=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					do := forwards(mode.fanOut)
					for pb.Next() {
						do()
					}
				})
			})
		}
	}
}
