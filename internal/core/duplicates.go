package core

import (
	"math"
	"sort"
	"strings"

	"iotaxo/internal/dataset"
	"iotaxo/internal/stats"
)

// DuplicateFloor is the result of the application-modeling litmus test
// (Sec. VI.A): the smallest median absolute error any model can achieve on
// a dataset, estimated from sets of duplicate jobs. A model whose features
// cannot distinguish duplicates can at best predict each set's mean.
type DuplicateFloor struct {
	// Sets and DuplicateJobs count the duplicate structure; Fraction is
	// DuplicateJobs / TotalJobs (Theta 23.5%, Cori 54% in the paper).
	Sets          int
	DuplicateJobs int
	TotalJobs     int
	Fraction      float64
	// MedianAbsLog is the litmus floor in log10 units; FloorPct is its
	// percentage form (Theta 10.01%, Cori 14.15%).
	MedianAbsLog float64
	FloorPct     float64
	// PerApp breaks the floor down by application (Fig 1b).
	PerApp map[string]AppFloor
}

// AppFloor is one application's duplicate spread.
type AppFloor struct {
	Jobs int
	Sets int
	// MedianAbsLog / FloorPct as in DuplicateFloor.
	MedianAbsLog float64
	FloorPct     float64
	// SignedDevs are the signed log deviations from set means (for
	// rendering the Fig 1b distributions).
	SignedDevs []float64
}

// EstimateDuplicateFloor runs litmus test 1: find duplicate sets (same app,
// identical application features), compute each duplicate's deviation from
// its set's mean log throughput with Bessel's correction, and report the
// median absolute deviation.
func EstimateDuplicateFloor(f *dataset.Frame) (DuplicateFloor, error) {
	d, err := FindDuplicates(f)
	if err != nil {
		return DuplicateFloor{}, err
	}
	return d.Floor(), nil
}

// Duplicates is a frame's duplicate sets, found in one pass for every
// estimate and view that reads them.
type Duplicates struct {
	f    *dataset.Frame
	sets []dataset.DupSet
}

// FindDuplicates finds f's duplicate sets using the application features
// (the Darshan-visible families), matching the paper's definition.
func FindDuplicates(f *dataset.Frame) (Duplicates, error) {
	sets, err := dataset.DuplicateSets(f, prefixedColumns(f, AppFeaturePrefixes...))
	return Duplicates{f: f, sets: sets}, err
}

// Floor is litmus test 1 over the duplicate sets.
func (d Duplicates) Floor() DuplicateFloor {
	f := d.f
	out := DuplicateFloor{TotalJobs: f.Len(), PerApp: map[string]AppFloor{}}
	var allDevs []float64
	perApp := map[string]*AppFloor{}
	for _, s := range d.sets {
		out.Sets++
		out.DuplicateJobs += s.Len()
		app := perApp[s.App]
		if app == nil {
			app = &AppFloor{}
			perApp[s.App] = app
		}
		app.Sets++
		app.Jobs += s.Len()
		devs, bessel := deviations(f, s.Rows)
		for _, d := range devs {
			d *= bessel
			allDevs = append(allDevs, math.Abs(d))
			app.SignedDevs = append(app.SignedDevs, d)
		}
	}
	if out.TotalJobs > 0 {
		out.Fraction = float64(out.DuplicateJobs) / float64(out.TotalJobs)
	}
	out.MedianAbsLog = stats.Median(allDevs)
	out.FloorPct = stats.PctFromLog(out.MedianAbsLog)
	for name, app := range perApp {
		abs := make([]float64, len(app.SignedDevs))
		for i, d := range app.SignedDevs {
			abs[i] = math.Abs(d)
		}
		app.MedianAbsLog = stats.Median(abs)
		app.FloorPct = stats.PctFromLog(app.MedianAbsLog)
		out.PerApp[name] = *app
	}
	return out
}

// prefixedColumns lists f's columns that start with one of the prefixes;
// nil if none does (then duplicate sets compare all columns).
func prefixedColumns(f *dataset.Frame, prefixes ...string) []string {
	var cols []string
	for _, c := range f.Columns() {
		for _, p := range prefixes {
			if strings.HasPrefix(c, p) {
				cols = append(cols, c)
				break
			}
		}
	}
	return cols
}

// deviations returns the log10 deviations of the rows' throughputs from
// their mean, and the Bessel factor sqrt(n/(n-1)) that removes the small-set
// bias of the sample mean from deviations scaled by it.
func deviations(f *dataset.Frame, rows []int) ([]float64, float64) {
	devs := make([]float64, len(rows))
	for i, ri := range rows {
		devs[i] = math.Log10(f.Y()[ri])
	}
	mean := stats.Mean(devs)
	for i := range devs {
		devs[i] -= mean
	}
	return devs, math.Sqrt(float64(len(rows)) / float64(len(rows)-1))
}

// DupPair is one pair of duplicate jobs: the time gap between their starts
// and their relative throughput difference (Fig 1c's axes).
type DupPair struct {
	// DeltaT is |start_a - start_b| in seconds.
	DeltaT float64
	// DeltaLog is log10(phi_a / phi_b), symmetric around zero.
	DeltaLog float64
	// Weight downweights pairs from large sets so sets contribute equally.
	Weight float64
}

// maxPairsPerSet caps the O(n^2) pair enumeration of huge duplicate sets;
// remaining pairs are represented by weight.
const maxPairsPerSet = 64

// DuplicatePairs enumerates f's weighted duplicate pairs (see Pairs).
func DuplicatePairs(f *dataset.Frame) ([]DupPair, error) {
	d, err := FindDuplicates(f)
	if err != nil {
		return nil, err
	}
	return d.Pairs(), nil
}

// Pairs enumerates weighted duplicate pairs for the ∆t analyses (Fig 1c,
// Fig 6). Pairs within a set are weighted 1/numPairs so that every
// duplicate set has equal total weight.
func (d Duplicates) Pairs() []DupPair {
	f := d.f
	var out []DupPair
	for _, s := range d.sets {
		rows := s.Rows
		// Deterministically subsample huge sets: stride over members so at
		// most maxPairsPerSet survive.
		if len(rows) > maxPairsPerSet {
			stride := (len(rows) + maxPairsPerSet - 1) / maxPairsPerSet
			var sub []int
			for i := 0; i < len(rows); i += stride {
				sub = append(sub, rows[i])
			}
			rows = sub
		}
		nPairs := len(rows) * (len(rows) - 1) / 2
		if nPairs == 0 {
			continue
		}
		w := 1 / float64(nPairs)
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				a, b := rows[i], rows[j]
				out = append(out, DupPair{
					DeltaT:   math.Abs(f.Meta(a).Start - f.Meta(b).Start),
					DeltaLog: math.Log10(f.Y()[a] / f.Y()[b]),
					Weight:   w,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeltaT < out[j].DeltaT })
	return out
}
