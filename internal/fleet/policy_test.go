package fleet

import (
	"context"
	"fmt"
	"testing"

	"iotaxo/internal/rng"
	"iotaxo/internal/serve"
)

// TestPickReplica covers the routing rule: the owner wins whatever its
// load, load decides only without an owner, and ties break by name.
func TestPickReplica(t *testing.T) {
	cases := []struct {
		name  string
		cands []candidate
		owner string
		want  string
	}{
		{
			name:  "idle owner wins under affinity",
			cands: []candidate{{"a", 0}, {"b", 0}, {"c", 0}},
			owner: "b",
			want:  "b",
		},
		{
			name:  "loaded owner still wins at 3:2",
			cands: []candidate{{"a", 0}, {"b", 100}, {"c", 50}},
			owner: "b",
			// The owner keeps its cache arc however loaded it is.
			want: "b",
		},
		{
			name:  "no owner falls back to least loaded",
			cands: []candidate{{"a", 9}, {"b", 2}, {"c", 5}},
			owner: "",
			want:  "b",
		},
		{
			name:  "equal scores tie-break by name",
			cands: []candidate{{"c", 4}, {"a", 4}, {"b", 4}},
			owner: "",
			want:  "a",
		},
		{
			name:  "owner not a candidate (already tried)",
			cands: []candidate{{"a", 7}, {"c", 1}},
			owner: "b",
			want:  "c",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			i := pickReplica(tc.cands, tc.owner)
			if i < 0 {
				t.Fatalf("pickReplica returned none, want %q", tc.want)
			}
			if got := tc.cands[i].name; got != tc.want {
				t.Fatalf("picked %q, want %q", got, tc.want)
			}
		})
	}
	if i := pickReplica(nil, "a"); i != -1 {
		t.Fatalf("pickReplica with no candidates = %d, want -1", i)
	}
}

// TestDupAffinityLocality is the golden routing test: on a duplicate-
// heavy synthetic trace (the paper's Sec. VI workload shape), dup-affinity
// routing must land >90%% of repeat feature-hashes on the replica that
// served the hash first — that replica's cache already holds the answer.
func TestDupAffinityLocality(t *testing.T) {
	reps := []*stubReplica{newStub("replica-0"), newStub("replica-1"), newStub("replica-2")}
	rt := newTestRouter(t, RouterConfig{}, reps[0], reps[1], reps[2])

	r := rng.New(99)
	pool := make([][]float64, 64)
	for i := range pool {
		pool[i] = []float64{r.Float64() * 100, r.Float64() * 10, float64(r.Intn(512)), r.Float64()}
	}
	firstServed := make(map[uint64]string)
	repeats, sticky := 0, 0
	for i := 0; i < 1000; i++ {
		// 70% duplicate mass: replay a pool row verbatim.
		row := pool[r.Intn(len(pool))]
		if !r.Bool(0.7) {
			row = append([]float64(nil), row...)
			row[0] += r.Float64() // perturbed = a novel job
		}
		resp, err := rt.Route(context.Background(), &serve.PredictRequest{System: "theta", Row: row})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(resp.Replicas) != 1 {
			t.Fatalf("request %d: %d shares for one row", i, len(resp.Replicas))
		}
		served := resp.Replicas[0].Replica
		key := serve.HashKey("theta", 0, row)
		if prev, seen := firstServed[key]; seen {
			repeats++
			if prev == served {
				sticky++
			}
		} else {
			firstServed[key] = served
		}
	}
	if repeats < 300 {
		t.Fatalf("trace generated only %d repeats; not duplicate-heavy", repeats)
	}
	locality := float64(sticky) / float64(repeats)
	t.Logf("locality: %d/%d repeats (%.1f%%) routed to their first replica", sticky, repeats, locality*100)
	if locality <= 0.90 {
		t.Fatalf("cache-hit locality %.1f%% <= 90%%", locality*100)
	}
	// Sanity: the trace actually spread across the fleet rather than
	// collapsing onto one replica.
	spread := 0
	for _, rep := range reps {
		if rep.rowsServed() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("only %d replicas served traffic: %s", spread, fmt.Sprint(rt.View()))
	}
}
