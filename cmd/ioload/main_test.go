package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/fleet"
	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// A guard whose fields are all zero is still a guard: the reply carries it,
// so ioload must count it as one and read its label. The router's split and
// membership epoch come through beside the predictions, and the decoded
// reply encodes back to the bytes it was read from.
func TestDecodeReplyKeepsGuardPresence(t *testing.T) {
	routed := `{"system":"theta","version":2,"count":2,"predictions":[` +
		`{"log10_throughput":8,"throughput_bytes_per_sec":100000000,"guard":{"eu":0,"au":0,"ood":false,"error_source":"` + serve.SourceModeling + `"},"cache_hit":true},` +
		`{"log10_throughput":7,"throughput_bytes_per_sec":10000000,"cache_hit":false}],` +
		`"trace_id":"5","replicas":[{"replica":"r0","rows":2,"version":2}],"membership_epoch":3}` + "\n"
	pr, err := decodeReply(strings.NewReader(routed))
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 2 {
		t.Fatalf("%d predictions, want 2", len(pr.Predictions))
	}
	if got := pr.Predictions[0].Guard.ErrorSource(); got != serve.SourceModeling {
		t.Errorf("the all-zero guard reads error source %q, want %q", got, serve.SourceModeling)
	}
	if got := pr.Predictions[1].Guard.ErrorSource(); got != "" {
		t.Errorf("a prediction without a guard reads error source %q, want none", got)
	}
	if want := []fleet.ReplicaShare{{Replica: "r0", Rows: 2, Version: 2}}; !reflect.DeepEqual(pr.Replicas, want) || pr.MembershipEpoch != 3 {
		t.Errorf("split %+v at epoch %d, want r0 with 2 rows of v2 at epoch 3", pr.Replicas, pr.MembershipEpoch)
	}
	back, err := pr.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != routed {
		t.Errorf("the decoded reply encodes as\n%s\nwant\n%s", back, routed)
	}

	// A plain ioserve reply has no split.
	plain := routed[:strings.Index(routed, `,"replicas"`)] + "}\n"
	pr, err = decodeReply(strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Replicas != nil || pr.MembershipEpoch != 0 || pr.Predictions[0].Guard.ErrorSource() != serve.SourceModeling {
		t.Errorf("plain reply decoded to split %+v, epoch %d, guard %q", pr.Replicas, pr.MembershipEpoch, pr.Predictions[0].Guard.ErrorSource())
	}
}

// A routed reply is one encoding/json pass. It must decode exactly as the
// reply did when it took three (the codec's fast path, which refuses it, its
// encoding/json fallback, and the split on its own): guards present, the
// all-zero one included, and the split's trace IDs and epoch, also when the
// router leaves either out.
func TestDecodeRoutedReplyAsThreePasses(t *testing.T) {
	head := `{"system":"theta","version":2,"count":3,"predictions":[` +
		`{"log10_throughput":8,"throughput_bytes_per_sec":100000000,"guard":{"eu":0,"au":0,"ood":false,"error_source":"` + serve.SourceModeling + `"},"cache_hit":true},` +
		`{"log10_throughput":7.5,"throughput_bytes_per_sec":31622776.601683792,"guard":{"eu":0.25,"au":0.125,"ood":true,"error_source":"` + serve.SourceGeneralization + `"},"cache_hit":false},` +
		`{"log10_throughput":7,"throughput_bytes_per_sec":10000000,"cache_hit":false}],` +
		`"trace_id":"9f"`
	replicas := `,"replicas":[{"replica":"r0","rows":2,"version":2,"trace_ids":["a1","a2"]},{"replica":"r1","rows":1,"version":2}]`
	for _, reply := range []string{
		head + replicas + `,"membership_epoch":7}`,
		head + replicas + "}\n",
		head + `,"membership_epoch":7}`,
		head + "}",
	} {
		var want fleet.Response
		if err := serve.DecodePredictReply([]byte(reply), &want.PredictResponse); err != nil {
			t.Fatal(err)
		}
		var split struct {
			Replicas        []fleet.ReplicaShare `json:"replicas"`
			MembershipEpoch uint64               `json:"membership_epoch"`
		}
		if err := json.Unmarshal([]byte(reply), &split); err != nil {
			t.Fatal(err)
		}
		want.Replicas, want.MembershipEpoch = split.Replicas, split.MembershipEpoch
		got, err := decodeReply(strings.NewReader(reply))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\ndecodes to %+v\nwant %+v", reply, got, want)
		}
		if got.Predictions[0].Guard.ErrorSource() != serve.SourceModeling || got.Predictions[2].Guard.ErrorSource() != "" {
			t.Errorf("%s: guards read %q and %q", reply, got.Predictions[0].Guard.ErrorSource(), got.Predictions[2].Guard.ErrorSource())
		}
	}
}

// sumMetric sums one family's samples across its label sets from a rendered
// exposition, and not those of a longer name that shares its prefix.
func TestSumMetricReadsOneFamily(t *testing.T) {
	const name = "ioserve_admission_shed_total"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.WriteFamilies(w, []obs.PromFamily{
			{Name: name, Help: "Shed requests.", Type: "counter", Samples: []obs.PromSample{
				{Name: name, Labels: obs.Labels("reason", "inflight"), Value: 2},
				{Name: name, Labels: obs.Labels("reason", "p99"), Value: 3},
			}},
			{Name: name + "_by_class", Help: "A longer name.", Type: "counter", Samples: []obs.PromSample{
				{Name: name + "_by_class", Value: 100},
			}},
		})
	}))
	defer srv.Close()
	if got, err := sumMetric(srv.Client(), srv.URL, name); err != nil || got != 5 {
		t.Errorf("sum %v (%v), want 5", got, err)
	}
	if _, err := sumMetric(srv.Client(), srv.URL, "ioserve_absent_total"); err == nil {
		t.Error("an absent metric summed without an error")
	}
}
