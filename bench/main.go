// Command bench is the repository's performance ledger: one invocation
// runs one workload against the production serving wiring and prints every
// end-to-end and per-layer metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"iotaxo/internal/serve"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	fixture  string
	aa       string
	pairs    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: embed-unique, http-dup, http-single or fleet-split")
	flag.Uint64Var(&o.seed, "seed", 1, "request-stream seed (the fixture's seed is fixed)")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured phase, in 2.5 s windows")
	flag.IntVar(&o.trace, "trace", 1, "0: measured phase only, JSON carries the end-to-end metrics; 1: a short measured phase plus the traced pass, JSON carries the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny run: 1 window of 200 ms, 1 set-up, 32-request traced pass")
	flag.StringVar(&o.fixture, "fixture", "", "reuse the fixture saved in this directory instead of training one")
	flag.StringVar(&o.aa, "aa", "", "run this workload 2*pairs times and compare the two alternating halves")
	flag.IntVar(&o.pairs, "pairs", 5, "pairs of runs for -aa")
	flag.Parse()
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	if o.aa != "" {
		o.workload = o.aa
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	frame, err := fixtureFrame()
	if err != nil {
		return err
	}
	fixture := o.fixture
	if fixture == "" {
		if err := os.MkdirAll("out", 0o755); err != nil {
			return err
		}
		if fixture, err = os.MkdirTemp("out", "fixture-"); err != nil {
			return err
		}
		defer os.RemoveAll(fixture)
		if err := trainFixture(frame, fixture); err != nil {
			return err
		}
	}
	if o.aa != "" {
		return runAA(w, o.pairs, o.seed, o.seconds, fixture)
	}

	p, err := newPool(frame)
	if err != nil {
		return err
	}
	reg, err := serve.LoadRegistry(fixture)
	if err != nil {
		return err
	}
	mv, err := reg.Get(fixtureSystem, 0)
	if err != nil {
		return err
	}
	cfg := newConfig(w, o.seed, o.seconds, o.trace != 0, fixture)
	if o.smoke {
		smokeConfig(cfg)
	}
	res := run(cfg, p, mv.Model)
	report(os.Stdout, res, cfg.traced)
	return res.err
}

func newConfig(w *workload, seed uint64, seconds int, traced bool, fixtureDir string) *config {
	cfg := &config{
		workload:       w,
		seed:           seed,
		windows:        max(1, int(time.Duration(seconds)*time.Second/windowLen)),
		window:         windowLen,
		warm:           warmupLen,
		setupReps:      setupReps,
		fillRows:       cacheSize,
		traced:         traced,
		ladderRequests: ladderRequests,
		fixtureDir:     fixtureDir,
		outDir:         "out",
	}
	if traced {
		cfg.windows = min(cfg.windows, tracedWindows)
	}
	return cfg
}

// smokeConfig shrinks a run to a functional check.
func smokeConfig(cfg *config) {
	cfg.windows, cfg.window, cfg.warm = 1, 200*time.Millisecond, 100*time.Millisecond
	cfg.setupReps, cfg.fillRows, cfg.ladderRequests = 1, 0, 32
}

// wireMetric is one metric of the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the result line the driver reads: the last line of stdout.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints every measured metric by name with its unit, then the
// result line: the per-layer metrics of a traced run, the end-to-end
// metrics otherwise.
func report(out io.Writer, res *result, traced bool) {
	line := wireResult{Correct: res.err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]wireMetric{}}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range group {
			v, ok := res.metrics[def.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "%-40s %16.6g %s\n", def.name, v, def.unit)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, def := range defs {
		if v, ok := res.metrics[def.name]; ok {
			line.Metrics[def.name] = wireMetric{Value: v, Unit: def.unit}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is a finite float
	}
	fmt.Fprintf(out, "%s\n", raw)
}
