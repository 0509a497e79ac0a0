package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"iotaxo/internal/modelfile"
)

// Reference histograms: the training-time feature distribution persisted
// alongside a model bundle, so a drift detector watching live traffic has
// something to compare against. The paper's taxonomy names temporal concept
// drift and out-of-distribution inputs as silent error sources; detecting
// either requires remembering what "in distribution" looked like when the
// model was trained — which is exactly what these histograms record.
//
// Each feature gets quantile-spaced cut points (so the reference mass is
// roughly uniform across bins, the shape PSI is calibrated for) and the
// training-set counts per bin. The histograms ride in the bundle as its
// reference section, so they survive the
// SaveVersion/LoadRegistry round trip and live reloads, and a bundle loaded
// from disk can be monitored without access to its training data.

// refHistMaxBins bounds the per-feature bin count accepted from a bundle
// (which is untrusted input).
const refHistMaxBins = 64

// defaultRefBins is the bin count BuildFeatureHists uses by default; ten
// quantile bins is the conventional PSI resolution.
const defaultRefBins = 10

// FeatureHist is one feature's training-time histogram. Cuts has len
// (bins-1) interior cut points in ascending order; Counts has len(Cuts)+1
// entries, where Counts[i] is the number of training rows in bin i — bin 0
// is (-inf, Cuts[0]], bin i is (Cuts[i-1], Cuts[i]], the last bin is
// (Cuts[len-1], +inf).
type FeatureHist struct {
	Name   string
	Cuts   []float64
	Counts []uint64
}

// NumBins returns the bin count.
func (h *FeatureHist) NumBins() int { return len(h.Counts) }

// Total returns the reference sample size.
func (h *FeatureHist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinIndex maps a raw feature value to its bin.
func (h *FeatureHist) BinIndex(v float64) int {
	// sort.SearchFloat64s finds the first cut >= v; bin edges are
	// inclusive on the right, so a value equal to a cut belongs to the
	// bin that cut closes.
	return sort.Search(len(h.Cuts), func(i int) bool { return h.Cuts[i] >= v })
}

// validate checks a (possibly hostile, disk-sourced) histogram.
func (h *FeatureHist) validate() error {
	if h.Name == "" {
		return fmt.Errorf("serve: reference histogram has no feature name")
	}
	if len(h.Counts) < 2 || len(h.Counts) > refHistMaxBins {
		return fmt.Errorf("serve: reference histogram %q has %d bins, want 2..%d", h.Name, len(h.Counts), refHistMaxBins)
	}
	if len(h.Cuts) != len(h.Counts)-1 {
		return fmt.Errorf("serve: reference histogram %q has %d cuts for %d bins", h.Name, len(h.Cuts), len(h.Counts))
	}
	prev := math.Inf(-1)
	for _, c := range h.Cuts {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("serve: reference histogram %q has a non-finite cut", h.Name)
		}
		if c <= prev {
			return fmt.Errorf("serve: reference histogram %q cuts are not strictly ascending", h.Name)
		}
		prev = c
	}
	// The drift thresholds are computed from the total: it must not wrap.
	var total, carry uint64
	for _, c := range h.Counts {
		if total, carry = bits.Add64(total, c, 0); carry != 0 {
			return fmt.Errorf("serve: reference histogram %q counts overflow", h.Name)
		}
	}
	if total == 0 {
		return fmt.Errorf("serve: reference histogram %q is empty", h.Name)
	}
	return nil
}

// validateReference cross-checks a bundle's reference histograms against
// its feature schema: every histogram must name a schema column, at most
// once.
func validateReference(ref []FeatureHist, columns []string) error {
	if len(ref) == 0 {
		return nil
	}
	if len(ref) > len(columns) {
		return fmt.Errorf("serve: %d reference histograms for %d features", len(ref), len(columns))
	}
	have := make(map[string]bool, len(columns))
	for _, c := range columns {
		have[c] = true
	}
	seen := make(map[string]bool, len(ref))
	for i := range ref {
		h := &ref[i]
		if err := h.validate(); err != nil {
			return err
		}
		if !have[h.Name] {
			return fmt.Errorf("serve: reference histogram %q names no schema column", h.Name)
		}
		if seen[h.Name] {
			return fmt.Errorf("serve: duplicate reference histogram %q", h.Name)
		}
		seen[h.Name] = true
	}
	return nil
}

// refHeader is the reference section's header. The body is, per histogram in order,
// its bins-1 cuts as float64 bit patterns, then its bins counts as uint64.
type refHeader struct {
	Names []string `json:"names"`
	Bins  []uint32 `json:"bins"`
}

// writeReference serializes validated histograms as a modelfile artifact.
func writeReference(w io.Writer, ref []FeatureHist) error {
	h := refHeader{Names: make([]string, len(ref)), Bins: make([]uint32, len(ref))}
	total := 0
	for i := range ref {
		h.Names[i], h.Bins[i] = ref[i].Name, uint32(len(ref[i].Counts))
		total += len(ref[i].Counts)
	}
	b, err := modelfile.Begin(refMagic, h, 8*(2*total-len(ref)))
	if err != nil {
		return fmt.Errorf("serve: encoding reference header: %w", err)
	}
	for i := range ref {
		b = modelfile.AppendFloat64s(b, ref[i].Cuts)
		for _, c := range ref[i].Counts {
			b = binary.LittleEndian.AppendUint64(b, c)
		}
	}
	_, err = w.Write(modelfile.Seal(b))
	return err
}

// readReference deserializes what writeReference wrote. The checksum is
// verified first, and the header's bin counts — each within bounds, so their
// sum cannot overflow — must account for exactly the bytes present before the
// two backing arrays are allocated. What it returns has passed validate.
func readReference(data []byte) ([]FeatureHist, error) {
	var h refHeader
	body, err := modelfile.Open(refMagic, data, &h)
	if err != nil {
		return nil, fmt.Errorf("serve: decoding reference: %w", err)
	}
	total := 0
	for i, n := range h.Bins {
		if n < 2 || n > refHistMaxBins {
			return nil, fmt.Errorf("serve: reference header declares %d bins for histogram %d, want 2..%d", n, i, refHistMaxBins)
		}
		total += int(n)
	}
	// No histograms has two canonical headers (null and []) and no use.
	if total == 0 || len(h.Names) != len(h.Bins) || len(body) != 8*(2*total-len(h.Bins)) {
		return nil, fmt.Errorf("serve: reference header declares %d names, %d histograms, %d bins; body has %d bytes", len(h.Names), len(h.Bins), total, len(body))
	}
	cuts, counts := make([]float64, total-len(h.Bins)), make([]uint64, total)
	ref := make([]FeatureHist, len(h.Bins))
	for i, n := range h.Bins {
		ref[i] = FeatureHist{Name: h.Names[i], Cuts: cuts[: n-1 : n-1], Counts: counts[:n:n]}
		cuts, counts = cuts[n-1:], counts[n:]
		body = modelfile.Float64s(ref[i].Cuts, body)
		for j := range ref[i].Counts {
			ref[i].Counts[j] = binary.LittleEndian.Uint64(body[8*j:])
		}
		body = body[8*n:]
		if err := ref[i].validate(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// BuildFeatureHists summarizes training rows into per-feature quantile
// histograms (bins <= 0 selects the default of 10). Columns and rows must
// agree on width. Features whose values are all identical produce a
// two-bin histogram with every row in the first bin — still comparable,
// since any live value above the constant lands in the second.
func BuildFeatureHists(columns []string, rows [][]float64, bins int) ([]FeatureHist, error) {
	if bins <= 0 {
		bins = defaultRefBins
	}
	if bins > refHistMaxBins {
		bins = refHistMaxBins
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("serve: reference histograms need rows")
	}
	for i, r := range rows {
		if len(r) != len(columns) {
			return nil, fmt.Errorf("serve: reference row %d has %d features, want %d", i, len(r), len(columns))
		}
	}
	out := make([]FeatureHist, len(columns))
	vals := make([]float64, len(rows))
	for f, name := range columns {
		for i, r := range rows {
			vals[i] = r[f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		cuts := quantileCuts(sorted, bins)
		h := FeatureHist{Name: name, Cuts: cuts, Counts: make([]uint64, len(cuts)+1)}
		for _, v := range vals {
			h.Counts[h.BinIndex(v)]++
		}
		out[f] = h
	}
	return out, nil
}

// quantileCuts returns strictly ascending interior cut points at the
// quantiles of a sorted sample, deduplicated (heavy ties collapse bins).
// Always returns at least one cut, so every histogram has >= 2 bins.
func quantileCuts(sorted []float64, bins int) []float64 {
	n := len(sorted)
	cuts := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		q := sorted[(n-1)*b/bins]
		if len(cuts) == 0 || q > cuts[len(cuts)-1] {
			cuts = append(cuts, q)
		}
	}
	if len(cuts) == 0 {
		// Constant feature: one cut at the constant, putting all reference
		// mass in bin 0 and any larger live value in bin 1.
		cuts = append(cuts, sorted[0])
	}
	return cuts
}
