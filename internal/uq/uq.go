// Package uq implements deep-ensemble uncertainty quantification in the
// style of AutoDEUQ (Sec. VIII): an ensemble of heteroscedastic neural
// networks — typically the top candidates of a neural architecture search —
// whose predictive variance decomposes by the law of total variance into
//
//	aleatory  AU = mean over members of each member's predicted variance
//	epistemic EU = variance over members of the predicted means
//
// Samples where members disagree (high EU) lack training support and are
// flagged out-of-distribution; samples where members agree but all predict
// high variance (high AU) are inherently noisy.
package uq

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"iotaxo/internal/nn"
	"iotaxo/internal/stats"
)

// Ensemble is a set of trained heteroscedastic networks.
type Ensemble struct {
	Members []*nn.Model
}

// TrainEnsemble trains one network per parameter set (forcing the
// heteroscedastic head) over a bounded worker pool. Parameter sets should
// be architecturally diverse — e.g. hpo.TopK of a NAS run — since ensemble
// diversity is what makes the epistemic signal meaningful.
func TrainEnsemble(paramSets []nn.Params, rows [][]float64, y []float64, workers int) (*Ensemble, error) {
	if len(paramSets) < 2 {
		return nil, errors.New("uq: an ensemble needs at least 2 members")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(paramSets) {
		workers = len(paramSets)
	}
	members := make([]*nn.Model, len(paramSets))
	errs := make([]error, len(paramSets))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := paramSets[i]
				p.Heteroscedastic = true
				// Distinct seeds even if the caller reused one config.
				p.Seed ^= uint64(i+1) * 0x9e3779b97f4a7c15
				m, err := nn.Train(p, rows, y)
				members[i], errs[i] = m, err
			}
		}()
	}
	for i := range paramSets {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("uq: member training failed: %w", err)
		}
	}
	return &Ensemble{Members: members}, nil
}

// Prediction is the decomposed predictive distribution for one sample.
type Prediction struct {
	// Mean is the ensemble-mean prediction.
	Mean float64
	// AU is the aleatory variance (mean of member variances).
	AU float64
	// EU is the epistemic variance (variance of member means).
	EU float64
}

// TotalVariance returns AU + EU (the law of total variance).
func (p Prediction) TotalVariance() float64 { return p.AU + p.EU }

// Predict decomposes the ensemble's predictive distribution for one row.
func (e *Ensemble) Predict(row []float64) Prediction {
	k := len(e.Members)
	means := make([]float64, k)
	var auSum float64
	for i, m := range e.Members {
		mu, v := m.PredictDist(row)
		means[i] = mu
		auSum += v
	}
	return Prediction{
		Mean: stats.Mean(means),
		AU:   auSum / float64(k),
		EU:   stats.PopVariance(means),
	}
}

// PredictAll decomposes every row. Each member forwards the whole input in
// batched matrix passes (nn.PredictDistAll) — one product per layer per
// chunk instead of one per row — and over a frame (fanOutRows rows or more)
// members fan out across CPUs when more than one is available. Results
// match per-row Predict bit-for-bit.
func (e *Ensemble) PredictAll(rows [][]float64) []Prediction {
	return e.PredictBatch(rows)
}

// PredictBatch decomposes a batch over batched member forwards. This is
// the serving-path kernel: a predict call hands it the rows of its cache
// misses, and each member's pass is a chunked matrix product rather than
// per-row network walks.
func (e *Ensemble) PredictBatch(rows [][]float64) []Prediction {
	if len(rows) == 0 {
		return nil
	}
	out := make([]Prediction, len(rows))
	var s BatchScratch
	e.PredictBatchInto(rows, out, &s)
	return out
}

// BatchScratch holds the reusable buffers of PredictBatchInto: flat
// per-member mean/variance planes plus each member's network activation
// arena. The zero value is ready; buffers grow to the largest batch seen
// and are then reused. Not safe for concurrent use — serving workers keep
// one each (or pool them).
type BatchScratch struct {
	means, vars []float64 // k planes of n values each
	memberMeans []float64
	nn          []*nn.InferScratch
}

// fanOutRows is the batch size from which PredictBatchInto gives each
// member its own goroutine. Below it the members run in line on the caller:
// starting and joining three goroutines costs more than the forwards of a
// few rows (and seven objects a batch), and serving evaluations already run
// side by side in the service's evaluation slots, leaving no idle CPU for
// the fan-out to use. At 64 a predict request's misses (16
// rows on the ledger's workloads) stay in line and PredictAll over a frame
// still fans out. BenchmarkMemberFanOut measures both situations.
const fanOutRows = 64

// PredictBatchInto is PredictBatch writing into a caller-provided slice
// (len(out) must equal len(rows)) through reusable scratch buffers: member
// forwards run through the internal/mat axpy kernels into s's arenas
// instead of allocating per member per call. Results are bit-identical to
// PredictBatch and per-row Predict at every batch size: in line or fanned
// out, each member writes only its own planes of s.
func (e *Ensemble) PredictBatchInto(rows [][]float64, out []Prediction, s *BatchScratch) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("uq: PredictBatchInto output has %d slots for %d rows", len(out), len(rows)))
	}
	if len(rows) == 0 {
		return
	}
	n, k := len(rows), len(e.Members)
	if cap(s.means) < k*n {
		s.means = make([]float64, k*n)
		s.vars = make([]float64, k*n)
	}
	s.means, s.vars = s.means[:k*n], s.vars[:k*n]
	if cap(s.memberMeans) < k {
		s.memberMeans = make([]float64, k)
	}
	s.memberMeans = s.memberMeans[:k]
	for len(s.nn) < k {
		s.nn = append(s.nn, new(nn.InferScratch))
	}
	if n < fanOutRows || runtime.GOMAXPROCS(0) == 1 {
		e.forwardInLine(rows, s)
	} else {
		e.forwardFanOut(rows, s)
	}
	memberMeans := s.memberMeans
	for i := range rows {
		var auSum float64
		for mi := 0; mi < k; mi++ {
			memberMeans[mi] = s.means[mi*n+i]
			auSum += s.vars[mi*n+i]
		}
		out[i] = Prediction{
			Mean: stats.Mean(memberMeans),
			AU:   auSum / float64(k),
			EU:   stats.PopVariance(memberMeans),
		}
	}
}

// forward runs member mi over rows into its planes of s (sized by
// PredictBatchInto).
func (e *Ensemble) forward(mi int, rows [][]float64, s *BatchScratch) {
	n := len(rows)
	e.Members[mi].PredictDistAllScratch(rows, s.means[mi*n:(mi+1)*n], s.vars[mi*n:(mi+1)*n], s.nn[mi])
}

// forwardInLine runs every member over rows on the calling goroutine.
func (e *Ensemble) forwardInLine(rows [][]float64, s *BatchScratch) {
	for mi := range e.Members {
		e.forward(mi, rows, s)
	}
}

// forwardFanOut runs every member over rows, one goroutine each.
func (e *Ensemble) forwardFanOut(rows [][]float64, s *BatchScratch) {
	var wg sync.WaitGroup
	for mi := range e.Members {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			e.forward(mi, rows, s)
		}(mi)
	}
	wg.Wait()
}

// EUs extracts the epistemic standard deviations of predictions.
func EUs(preds []Prediction) []float64 {
	out := make([]float64, len(preds))
	for i, p := range preds {
		out[i] = math.Sqrt(p.EU)
	}
	return out
}

// AUs extracts the aleatory standard deviations of predictions.
func AUs(preds []Prediction) []float64 {
	out := make([]float64, len(preds))
	for i, p := range preds {
		out[i] = math.Sqrt(p.AU)
	}
	return out
}

// ClassifyOoD flags predictions whose epistemic standard deviation exceeds
// the threshold.
func ClassifyOoD(preds []Prediction, euThreshold float64) []bool {
	out := make([]bool, len(preds))
	for i, p := range preds {
		out[i] = math.Sqrt(p.EU) > euThreshold
	}
	return out
}

// errBudgetFrac is the fraction of total error attributed to the high-EU
// tail by StableThreshold. The paper's threshold (0.24) lands just past the
// shoulder of the inverse cumulative error curve and attributes 2.4%
// (Theta) / 2.1% (Cori) of error to OoD jobs; a 3% budget reproduces that
// operating point.
const errBudgetFrac = 0.03

// StableThreshold picks an EU threshold from the inverse cumulative error
// curve (Sec. VIII.A): scanning samples from the highest epistemic
// uncertainty down, it accumulates their error until the OoD budget
// (errBudgetFrac of total error) is spent, extending across EU ties (a
// threshold cannot split equal EU values), and places the threshold just
// below the last included sample. Jobs beyond the shoulder of the curve —
// few, high-EU, disproportionately wrong — end up flagged. absErrs must
// align with preds.
func StableThreshold(preds []Prediction, absErrs []float64) float64 {
	if len(preds) != len(absErrs) {
		panic("uq: StableThreshold length mismatch")
	}
	if len(preds) == 0 {
		return 0
	}
	type kv struct{ eu, err float64 }
	items := make([]kv, len(preds))
	total := 0.0
	for i, p := range preds {
		items[i] = kv{math.Sqrt(p.EU), absErrs[i]}
		total += absErrs[i]
	}
	sort.Slice(items, func(a, b int) bool { return items[a].eu > items[b].eu })
	if total <= 0 {
		return items[0].eu
	}
	budget := errBudgetFrac * total
	cum := 0.0
	cut := -1 // index of the last flagged sample
	for i := 0; i < len(items); {
		if cum >= budget {
			break
		}
		// Include the whole tie group of items[i].
		j := i
		for j < len(items) && items[j].eu == items[i].eu {
			cum += items[j].err
			j++
		}
		cut = j - 1
		i = j
	}
	if cut < 0 || cut == len(items)-1 {
		// Nothing (or everything) flagged: threshold above the maximum.
		return items[0].eu
	}
	// Midpoint between the last flagged EU and the next one down.
	return (items[cut].eu + items[cut+1].eu) / 2
}
