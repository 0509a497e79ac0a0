package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA runs the workload 2*pairs times, each in a fresh process on the
// fixture trained once by this one, seeds counting up from seed. The runs
// alternate between two sets; since both sets are the same program, the gap
// between their medians is what the machine alone does to each end-to-end
// metric, to be held against the bound BENCHMARK.json gives that metric.
func runAA(w *workload, pairs int, seed uint64, seconds int, fixtureDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds("../BENCHMARK.json")
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*pairs; i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
			"-seconds", strconv.Itoa(seconds), "-trace", "0", "-fixture", fixtureDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line wireResult
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		fmt.Printf("run %2d set %c seed %d:", i, 'A'+i%2, seed+uint64(i))
		for _, def := range endToEnd {
			v := line.Metrics[def.name].Value
			sets[i%2][def.name] = append(sets[i%2][def.name], v)
			fmt.Printf(" %s=%.6g", def.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-12s %36s %36s %8s %8s %6s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "gap", "spread", "bound")
	var over []string
	for _, def := range endToEnd {
		a, b := sets[0][def.name], sets[1][def.name]
		if len(a) < 2 {
			fmt.Printf("%-12s needs -pairs of at least 2 for quartiles\n", def.name)
			continue
		}
		aq1, am, aq3 := quartiles(a)
		bq1, bm, bq3 := quartiles(b)
		// gap is how much worse B's median is than A's; spread is the
		// contract's statistic over all the runs together.
		gap := (bm - am) / am
		if def.higher {
			gap = -gap
		}
		sp := spread(append(append([]float64(nil), a...), b...))
		bound := bounds[def.name]
		fmt.Printf("%-12s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %+7.2f%% %7.2f%% %5.0f%%\n",
			def.name, am, aq1, aq3, bm, bq1, bq3, 100*gap, 100*sp, 100*bound)
		if math.Abs(gap) > bound || sp > bound {
			over = append(over, def.name)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("%s: outside the bound on %v", w.name, over)
	}
	return nil
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
