package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// The wire codec's contract is "byte-compatible with encoding/json", so
// every test here compares it against encoding/json on the same input: the
// decode sequence the handlers ran before the codec existed
// (decodeRequestJSON, json.Decoder for replies) and json.Marshal.

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRequest is reflect.DeepEqual with floats compared by bits, so -0 is
// not 0.
func sameRequest(a, b *PredictRequest) bool {
	if a.System != b.System || a.Version != b.Version || a.TraceParent != b.TraceParent || !sameFloats(a.Row, b.Row) ||
		(a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !sameFloats(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

func sameResponse(a, b *PredictResponse) bool {
	if a.System != b.System || a.Version != b.Version || a.Count != b.Count || a.TraceID != b.TraceID ||
		(a.Predictions == nil) != (b.Predictions == nil) || len(a.Predictions) != len(b.Predictions) ||
		(a.ServerTimings == nil) != (b.ServerTimings == nil) ||
		(a.ServerTimings != nil && *a.ServerTimings != *b.ServerTimings) {
		return false
	}
	for i := range a.Predictions {
		x, y := a.Predictions[i], b.Predictions[i]
		if x.CacheHit != y.CacheHit || x.Guard.OoD != y.Guard.OoD || x.Guard.set != y.Guard.set ||
			!sameFloats([]float64{x.Log10Throughput, x.Guard.EU, x.Guard.AU}, []float64{y.Log10Throughput, y.Guard.EU, y.Guard.AU}) {
			return false
		}
	}
	return true
}

// requestSeeds are the edge cases the request decoder must agree with
// encoding/json on; the checked-in corpus adds the bench's own bodies.
var requestSeeds = []string{
	`{"system":"theta","row":[1,2,3]}`,
	`{"system":"theta","version":2,"rows":[[1,2],[3,4]]}`,
	`{"system":"theta","rows":[[-0,1e-7,1E+21,0.1e1,-1.5E-3,123456789012345678901234567890]]}`,
	`{"system":"theta","row":[01]}`,
	`{"system":"theta","row":[1e999]}`,
	`{"system":"theta","row":[-]}`,
	`{"system":"theta","row":[1.]}`,
	`{"system":"theta","row":[.5]}`,
	`{"system":"theta","row":[+1]}`,
	`{"system":"theta","row":[1,]}`,
	`{"system":"theta","row":[NaN]}`,
	" \t\r\n{ \"system\" : \"theta\" , \"rows\" : [ [ 1 , 2 ] , [ 3 ] ] } \n",
	`{"system":"theta","row":[1]} trailing bytes {`,
	`{"system":"theta","row":[1]}{"system":"cori"}`,
	`{"system":"theta","row":[1]} 0`,
	`{"system":"theta","row":[1]}garbage`,
	`{"system":"theta","row":[1]}}`,
	`{"system":"theta","row":[1]}t`,
	`{"system":"theta","row":[1]}"x`,
	`{"system":"theta","row":[1]} -`,
	`{"system":"theta","row":[1]}1e`,
	`{"system":"theta","row":null}`,
	`{"system":"theta","rows":null}`,
	`{"system":"theta","rows":[null,[1]]}`,
	`{"system":"theta","row":[1],"rows":[[2]]}`,
	`{"system":"theta","rows":[[2],[3]],"row":[1]}`,
	`{"system":"theta","row":[]}`,
	`{"system":"theta","rows":[]}`,
	`{"system":"theta","rows":[[],[1,2],[]]}`,
	`{"system":"theta","rows":[[1],[2,3],[4,5,6]]}`,
	`{}`,
	`{"system":""}`,
	`null`,
	`[1]`,
	`"theta"`,
	`{"system":"theta","row":[1],"extra":1}`,
	`{"system":"theta","row":[1],"TraceParent":7}`,
	`{"system":"theta","row":[1],"trace_parent":7}`,
	`{"System":"theta","ROW":[1]}`,
	`{"system":"a","system":"b","row":[1],"row":[2,3]}`,
	`{"system":"theta","row":[1]}`,
	`{"system":"thé","row":[1]}`,
	"{\"system\":\"a\x00b\",\"row\":[1]}",
	"{\"system\":\"a\xffb\",\"row\":[1]}",
	`{"system":null,"row":[1]}`,
	`{"system":7,"row":[1]}`,
	`{"system":"theta","version":0,"row":[1]}`,
	`{"system":"theta","version":-0,"row":[1]}`,
	`{"system":"theta","version":-3,"row":[1]}`,
	`{"system":"theta","version":1.0,"row":[1]}`,
	`{"system":"theta","version":1e2,"row":[1]}`,
	`{"system":"theta","version":01,"row":[1]}`,
	`{"system":"theta","version":99999999999999999999,"row":[1]}`,
	`{"system":"theta","version":"2","row":[1]}`,
	`{"system":"theta","row":[true]}`,
	`{"system":"theta","row":["1"]}`,
	`{"system":"theta","row":[[1]]}`,
	`{"system":"theta","rows":[1]}`,
	`{"system":"theta","row":[1]`,
	`{"system":"theta",}`,
	`{`,
	``,
}

func FuzzDecodePredictRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want PredictRequest
		wantErr := decodeRequestJSON(data, nil, &want)
		// The oracle is held to encoding/json itself: what it takes,
		// json.Unmarshal takes too (it alone also takes unknown fields).
		if wantErr == nil {
			if err := json.Unmarshal(data, new(PredictRequest)); err != nil {
				t.Fatalf("decodeRequestJSON accepted what json.Unmarshal rejects (%v): %q", err, data)
			}
		}

		// The fast path alone: whatever it accepts, it decodes as the
		// oracle does. A call that has served before must behave like a
		// fresh one.
		used := new(predictCall)
		used.decodeRequest([]byte(`{"system":"before","version":9,"row":[1],"rows":[[2,3],[4]]}`))
		for _, c := range []*predictCall{new(predictCall), used} {
			if c.decodeRequest(data) {
				if wantErr != nil {
					t.Fatalf("fast path accepted what encoding/json rejects (%v): %q", wantErr, data)
				}
				if !sameRequest(&c.req, &want) {
					t.Fatalf("fast path decoded %+v, encoding/json %+v: %q", c.req, want, data)
				}
			}
		}

		// The whole envelope: same accept/reject, same status, same text.
		rec := httptest.NewRecorder()
		accepted := false
		HandlePredictRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(data)), 0,
			func(_ context.Context, req *PredictRequest, out *PredictResponse, _ *Answer) (JSONAppender, error) {
				accepted = true
				if !sameRequest(req, &want) {
					t.Fatalf("decoded %+v, encoding/json %+v: %q", req, want, data)
				}
				// And the hop's encoder is json.Marshal on whatever was decoded.
				wantHop, err := json.Marshal(&want)
				gotHop, gotErr := AppendPredictRequest(nil, req)
				if (err == nil) != (gotErr == nil) || err == nil && !bytes.Equal(gotHop, wantHop) {
					t.Fatalf("hop request %q (%v), json.Marshal %q (%v)", gotHop, gotErr, wantHop, err)
				}
				return out, nil
			})
		if accepted != (wantErr == nil) {
			t.Fatalf("accepted=%v, encoding/json error %v: %q", accepted, wantErr, data)
		}
		if !accepted {
			wantBody, _ := json.Marshal(map[string]string{"error": "decoding request: " + wantErr.Error()})
			if rec.Code != http.StatusBadRequest || rec.Body.String() != string(wantBody)+"\n" {
				t.Fatalf("rejected with %d %q, want 400 %q", rec.Code, rec.Body.String(), wantBody)
			}
		}
	})
}

func FuzzDecodePredictResponse(f *testing.F) {
	for _, s := range []string{
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":9.5,"throughput_bytes_per_sec":3162277660.1683793,"cache_hit":false}]}` + "\n",
		`{"system":"theta","version":2,"count":2,"predictions":[{"log10_throughput":-0,"throughput_bytes_per_sec":1e-7,"guard":{"eu":0.1,"au":1E+21,"ood":true,"error_source":"generalization"},"cache_hit":true},{"log10_throughput":1,"throughput_bytes_per_sec":10,"guard":{"eu":0,"au":0,"ood":false,"error_source":"somethin<g> new"},"cache_hit":false}],"trace_id":"00ff","server_timings":{"total_ns":8,"cache_lookup_ns":1,"queue_wait_ns":2,"wave_assemble_ns":3,"evaluate_ns":4,"guard_ns":5,"finalize_ns":6,"observe_ns":7}}`,
		`{"system":"theta","version":1,"count":0,"predictions":[]}`,
		// Labels that contradict the ood flag beside them.
		`{"system":"theta","version":1,"count":2,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"guard":{"eu":0.5,"au":0.1,"ood":true,"error_source":"app/system-modeling"},"cache_hit":false},{"log10_throughput":1,"throughput_bytes_per_sec":10,"guard":{"eu":0,"au":0,"ood":false,"error_source":"generalization"},"cache_hit":false}]}`,
		`{"system":"theta","version":1,"count":0,"predictions":null}`,
		`{"system":"theta","version":1,"count":5,"predictions":[]}`,
		`{"system":"theta","version":1,"count":0,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}]}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1e999,"throughput_bytes_per_sec":10,"cache_hit":false}]}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false},]}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"guard":null,"cache_hit":false}]}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"guard":{"error_source":"","ood":false,"au":0,"eu":0},"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}]}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}],"trace_id":""}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}],"replicas":[{"replica":"r0","rows":1,"version":1}],"membership_epoch":3}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}]} trailing {`,
		`{"count":1,"system":"theta","version":1,"predictions":[{"cache_hit":true,"log10_throughput":1,"throughput_bytes_per_sec":10}]}`,
		` {"system": "theta", "version": 1, "count": 0, "predictions": []}`,
		`{"error":"overloaded"}`,
		`{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeReplyJSON(data)
		// A reply decoded into storage that held another must come out as
		// one decoded into nothing.
		used := PredictResponse{System: "cori", TraceID: "ab", Predictions: make([]PredictionResult, 3, 64), ServerTimings: &ServerTimings{TotalNs: 9}}
		used.Predictions[0].Guard = Guard{OoD: true, set: true}
		for _, got := range []*PredictResponse{new(PredictResponse), &used} {
			err := DecodePredictReply(data, got)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("error %v, encoding/json %v: %q", err, wantErr, data)
			}
			if err == nil && !sameResponse(got, &want) {
				t.Fatalf("decoded %+v, encoding/json %+v: %q", got, want, data)
			}
		}
		var fast PredictResponse
		if decodeResponse(data, &fast) && (wantErr != nil || !sameResponse(&fast, &want)) {
			t.Fatalf("fast path decoded %+v, encoding/json %+v (%v): %q", fast, want, wantErr, data)
		}
	})
}

// decodeReplyJSON is the oracle of the reply decoders: what Remote.Predict
// ran before the codec, a streaming Decode (which, unlike json.Unmarshal,
// does not look past the value) into the reply type of the time, whose
// guards were pointers, so that a guard object the reply carries is one
// even when all its fields are zero. Throughput and the label are decoded
// and dropped: the decoders keep what they are derived from.
func decodeReplyJSON(data []byte) (PredictResponse, error) {
	var old struct {
		System      string `json:"system"`
		Version     int    `json:"version"`
		Count       int    `json:"count"`
		Predictions []struct {
			Log10Throughput float64      `json:"log10_throughput"`
			Throughput      float64      `json:"throughput_bytes_per_sec"`
			Guard           *mirrorGuard `json:"guard,omitempty"`
			CacheHit        bool         `json:"cache_hit"`
		} `json:"predictions"`
		TraceID       string         `json:"trace_id,omitempty"`
		ServerTimings *ServerTimings `json:"server_timings,omitempty"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&old); err != nil {
		return PredictResponse{}, err
	}
	resp := PredictResponse{System: old.System, Version: old.Version, Count: old.Count, TraceID: old.TraceID, ServerTimings: old.ServerTimings}
	if old.Predictions != nil {
		resp.Predictions = make([]PredictionResult, len(old.Predictions))
	}
	for i, pr := range old.Predictions {
		resp.Predictions[i] = PredictionResult{Log10Throughput: pr.Log10Throughput, CacheHit: pr.CacheHit}
		if g := pr.Guard; g != nil {
			resp.Predictions[i].Guard = Guard{EU: g.EU, AU: g.AU, OoD: g.OoD, set: true}
		}
	}
	return resp, nil
}

// replyMirror is PredictResponse as it was laid out while Throughput and the
// guard's label were stored: the oracle of the reply encoder, which
// encoding/json renders.
type replyMirror struct {
	System        string         `json:"system"`
	Version       int            `json:"version"`
	Count         int            `json:"count"`
	Predictions   []mirrorResult `json:"predictions"`
	TraceID       string         `json:"trace_id,omitempty"`
	ServerTimings *ServerTimings `json:"server_timings,omitempty"`
}

type mirrorResult struct {
	Log10Throughput float64     `json:"log10_throughput"`
	Throughput      float64     `json:"throughput_bytes_per_sec"`
	Guard           mirrorGuard `json:"guard,omitzero"`
	CacheHit        bool        `json:"cache_hit"`
}

type mirrorGuard struct {
	EU          float64 `json:"eu"`
	AU          float64 `json:"au"`
	OoD         bool    `json:"ood"`
	ErrorSource string  `json:"error_source"`
}

// seedPred is one prediction of a FuzzEncodePredictReply seed.
type seedPred struct {
	log10, eu, au float64
	flags         byte // bit 0: guard set, bit 1: OoD, bit 2: cache hit
}

// replyBytes lays predictions out as FuzzEncodePredictReply reads them: a
// header byte (bit 0: server timings), then per prediction the bits of
// log10, EU and AU and the flag byte. No bytes at all is nil predictions.
func replyBytes(timed bool, preds ...seedPred) []byte {
	b := []byte{0}
	if timed {
		b[0] = 1
	}
	for _, p := range preds {
		for _, f := range []float64{p.log10, p.eu, p.au} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = append(b, p.flags)
	}
	return b
}

// The predict reply encoder against encoding/json on replyMirror: the same
// status, body and Content-Length through the one writer, a 500 with the
// same error text for a number JSON cannot carry; and MarshalJSON on each
// prediction as encoding/json on its mirror.
func FuzzEncodePredictReply(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []struct {
		system, trace string
		preds         []byte
	}{
		{"theta", "", nil},
		{"theta", "", replyBytes(false)},
		{"theta", "00ff", replyBytes(true, seedPred{9.5, 0, 0, 0}, seedPred{9.5, 0.1, 0.2, 1}, seedPred{8.25, 2, 0.3, 7})},
		{"theta", "", replyBytes(false, seedPred{0, 0, 0, 1}, seedPred{0, 0, 0, 0})},                                   // all-zero guard, absent guard
		{"theta", "", replyBytes(false, seedPred{-6, 1e-6, 9.999999999999999e-7, 1}, seedPred{-7, -1e-7, 1e-5, 3})},    // the 1e-6 switch
		{"theta", "", replyBytes(false, seedPred{21, 1e21, 9.999999999999999e20, 1}, seedPred{20.99, -1e21, 1e22, 1})}, // the 1e21 switch
		{"theta", "", replyBytes(false, seedPred{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), 0})},
		{"theta", "", replyBytes(false, seedPred{math.Copysign(0, -1), math.Copysign(0, -1), 0, 1})},
		{"theta", "", replyBytes(false, seedPred{nan, 0, 0, 0})},
		{"theta", "", replyBytes(false, seedPred{inf, 0, 0, 0})},
		{"theta", "", replyBytes(false, seedPred{-inf, 0, 0, 0})},
		{"theta", "", replyBytes(false, seedPred{400, 0, 0, 0})}, // +Inf bytes/s
		{"theta", "", replyBytes(false, seedPred{1, 0.5, 0.1, 1}, seedPred{1, nan, -inf, 3})},
		{"theta", "", replyBytes(false, seedPred{1, 0, -inf, 0})}, // a non-zero guard that is not set
		{"<script>&amp;", "a\u2028\"b", replyBytes(true, seedPred{1, 0.5, 0.1, 1})},
		{"th\xffé\x00", "", replyBytes(false, seedPred{1, 0, 0, 4})},
		{"AT&T", "x>y", replyBytes(false)},
	} {
		f.Add(s.system, s.trace, 3, len(s.preds)/25, int64(12345), s.preds)
	}
	f.Fuzz(func(t *testing.T, system, trace string, version, count int, ns int64, preds []byte) {
		resp := PredictResponse{System: system, Version: version, Count: count, TraceID: trace}
		mirror := replyMirror{System: system, Version: version, Count: count, TraceID: trace}
		if len(preds) > 0 {
			if preds[0]&1 != 0 {
				resp.ServerTimings = &ServerTimings{ns, ns >> 1, ns >> 2, ns >> 3, -ns, ns >> 5, ns >> 6, ns >> 7}
				mirror.ServerTimings = resp.ServerTimings
			}
			resp.Predictions, mirror.Predictions = []PredictionResult{}, []mirrorResult{}
		}
		for b := preds[min(1, len(preds)):]; len(b) >= 25; b = b[25:] {
			float := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
			p := PredictionResult{Log10Throughput: float(0), CacheHit: b[24]&4 != 0,
				Guard: Guard{EU: float(1), AU: float(2), OoD: b[24]&2 != 0, set: b[24]&1 != 0}}
			m := mirrorResult{Log10Throughput: p.Log10Throughput, Throughput: p.Throughput(), CacheHit: p.CacheHit,
				Guard: mirrorGuard{p.Guard.EU, p.Guard.AU, p.Guard.OoD, p.Guard.ErrorSource()}}
			resp.Predictions, mirror.Predictions = append(resp.Predictions, p), append(mirror.Predictions, m)
		}

		want := httptest.NewRecorder()
		wantErr := writeReply(want, new(replyBuf), http.StatusOK, &mirror)
		got := httptest.NewRecorder()
		c := new(predictCall)
		gotErr := c.encode(&resp)
		c.writeHTTP(got)
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Length") != want.Header().Get("Content-Length") || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("appended %d %q (%v)\nencoding/json %d %q (%v)", got.Code, got.Body, gotErr, want.Code, want.Body, wantErr)
		}
		for i := range resp.Predictions {
			got, err := json.Marshal(resp.Predictions[i])
			want, wantErr := json.Marshal(mirror.Predictions[i])
			if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("MarshalJSON %s (%v), encoding/json %s (%v)", got, err, want, wantErr)
			}
		}
	})
}

// A guard object whose every field is zero is still a guard: the fallback
// labels it as the fast path labels the literal, and a router passes it on.
// Its keys are reordered, so the fast path refuses it.
func TestFallbackKeepsAnAllZeroGuard(t *testing.T) {
	for name, reply := range map[string]string{
		"all-zero guard, reordered keys": `{"system":"theta","version":1,"count":1,"predictions":[{"guard":{"error_source":"","ood":false,"au":0,"eu":0},"log10_throughput":1,"throughput_bytes_per_sec":10,"cache_hit":false}]}`,
		"empty guard object":             `{"system":"theta","version":1,"count":1,"predictions":[{"log10_throughput":1,"throughput_bytes_per_sec":10,"guard":{},"cache_hit":false}]}`,
	} {
		if decodeResponse([]byte(reply), new(PredictResponse)) {
			t.Fatalf("%s: the fast path took it", name)
		}
		var got PredictResponse
		if err := DecodePredictReply([]byte(reply), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g := got.Predictions[0].Guard; g != (Guard{set: true}) || g.ErrorSource() != SourceModeling {
			t.Errorf("%s: guard %+v, want a zero guard labelled %q", name, g, SourceModeling)
		}
		if enc, _ := json.Marshal(got.Predictions[0]); !strings.Contains(string(enc), `"guard":`) {
			t.Errorf("%s: re-encoded without its guard: %s", name, enc)
		}
	}
}

func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "theta", `missing "system"`, "a\\b", "<script>&amp;", "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f", "é  ", "\xff\xfe"} {
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("%q: got %s, json.Marshal %s", s, got, want)
		}
	}
}

// poisonObserver overwrites the last result of every served request: the
// fault injection behind the non-finite tests (observers are read-only by
// contract; this one breaks it on purpose).
type poisonObserver struct{ bad PredictionResult }

func (o poisonObserver) ObserveServed(_ *ModelVersion, _ [][]float64, results []PredictionResult) {
	results[len(results)-1] = o.bad
}

// The non-finite bug: before the codec, a NaN or Inf prediction was a 200
// with an empty body (the encoder's error was dropped after the header).
func TestNonFinitePredictionIsA500(t *testing.T) {
	frame, _, _ := fixture(t)
	var logged bytes.Buffer
	svc := NewService(fixtureRegistry(t), Options{Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	t.Cleanup(svc.Close)
	h := Handler(svc)
	body, err := json.Marshal(PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0), frame.Row(1)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []PredictionResult{
		{Log10Throughput: math.NaN()},
		{Log10Throughput: 400}, // +Inf bytes/s
		{Log10Throughput: 1, Guard: Guard{EU: math.Inf(-1), set: true}},
		{Log10Throughput: 1, Guard: Guard{AU: math.NaN(), set: true}},
	} {
		svc.SetObserver(poisonObserver{bad})
		logged.Reset()
		before := svc.Metrics().Errors.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		var reply map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(reply["error"], "non-finite") {
			t.Fatalf("%+v: status %d body %q, want 500 with the uniform error body", bad, rec.Code, rec.Body.String())
		}
		if got := svc.Metrics().Errors.Load(); got != before+1 {
			t.Errorf("ioserve_errors_total moved by %d, want 1", got-before)
		}
		// Logged from the reply that failed, read before its storage went
		// back to the pool.
		if line := logged.String(); !strings.Contains(line, "predict response not encodable") ||
			!strings.Contains(line, "system=theta") || !strings.Contains(line, "version=2") {
			t.Errorf("%+v: logged %q, want the failing reply's system and version", bad, line)
		}
	}
}

// A body that overflows the bound is refused the way the streaming decoder
// refused it, whether its length was declared or not, and one that
// completes its value first is still served if only white space follows.
func TestOversizeBodyKeepsEncodingJSONSemantics(t *testing.T) {
	post := func(body []byte, chunked bool) (*PredictRequest, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		var got *PredictRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		if chunked {
			r.ContentLength = -1
		}
		HandlePredictRequest(rec, r, 0,
			func(_ context.Context, req *PredictRequest, out *PredictResponse, _ *Answer) (JSONAppender, error) {
				got = &PredictRequest{System: req.System, Version: req.Version, Row: append([]float64(nil), req.Row...)}
				return out, nil
			})
		return got, rec
	}
	pad := bytes.Repeat([]byte(" "), maxRequestBody)
	for _, chunked := range []bool{false, true} {
		if got, rec := post(append(pad, `{"system":"theta","row":[1]}`...), chunked); got != nil || rec.Code != http.StatusBadRequest ||
			!strings.Contains(rec.Body.String(), "decoding request: http: request body too large") {
			t.Fatalf("value beyond the bound (chunked %v): accepted=%v %d %s", chunked, got != nil, rec.Code, rec.Body.String())
		}
	}
	got, rec := post(append([]byte(`{"system":"theta","row":[1]}`), pad...), false)
	if got == nil {
		t.Fatalf("value inside the bound, padding beyond it: %d %s", rec.Code, rec.Body.String())
	}
	if !sameRequest(got, &PredictRequest{System: "theta", Row: []float64{1}}) {
		t.Fatalf("decoded %+v", got)
	}
	// Data after the value is refused even when the bound, not EOF, ends
	// it: here a string that is still open when the body is cut.
	open := append([]byte(`{"system":"theta","row":[1]}"`), bytes.Repeat([]byte("a"), maxRequestBody)...)
	for _, chunked := range []bool{false, true} {
		if got, rec := post(open, chunked); got != nil || rec.Code != http.StatusBadRequest ||
			rec.Body.String() != `{"error":"decoding request: data after the JSON value"}`+"\n" {
			t.Fatalf("value, then data cut by the bound (chunked %v): accepted=%v %d %s", chunked, got != nil, rec.Code, rec.Body.String())
		}
	}
	// The 16 MiB buffer that call grew must not have gone back to the pool.
	if c := callPool.Get().(*predictCall); cap(c.buf) > maxPooledCall {
		t.Fatalf("a %d-byte buffer went back to the pool", cap(c.buf))
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that can be read again after a Reset.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// The steady state of the envelope allocates nothing of its own: every request
// after the first takes a pooled call, decodes into its block, reuses its
// system name, encodes the reply into its buffer and puts the Content-Length
// value in its slice. What is left is that value's digits: the reply is
// longer than 99 bytes, so strconv.Itoa allocates them.
func TestCodecSteadyStateReusesItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	frame, _, _ := fixture(t)
	body, err := json.Marshal(PredictRequest{System: "theta", Rows: [][]float64{frame.Row(0), frame.Row(1), frame.Row(2), frame.Row(3)}})
	if err != nil {
		t.Fatal(err)
	}
	resp := &PredictResponse{System: "theta", Version: 2, Count: 4, TraceID: "00ff", ServerTimings: &ServerTimings{TotalNs: 1}}
	for i := 0; i < 4; i++ {
		resp.Predictions = append(resp.Predictions, PredictionResult{Log10Throughput: 9.25, Guard: Guard{EU: 0.08, AU: 0.3, set: true}})
	}
	w := discardWriter{http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	rd := bytes.NewReader(nil)
	r.Body, r.ContentLength = rewindBody{rd}, int64(len(body))
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		err := HandlePredictRequest(w, r, 0, func(_ context.Context, req *PredictRequest, _ *PredictResponse, _ *Answer) (JSONAppender, error) {
			if len(req.Rows) != 4 {
				t.Fatalf("decoded %d rows, want 4", len(req.Rows))
			}
			return resp, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("a warm predict call allocated %.1f times, want 1 (the Content-Length digits)", allocs)
	}
}

// An untraced replica does not read an upstream X-Trace-Id: no trace would
// keep the parent it names, so the router's header costs the hop nothing.
func TestUntracedHandlerIgnoresTraceParent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{CacheSize: 64})
	t.Cleanup(svc.Close)
	body, err := json.Marshal(PredictRequest{System: "theta", Rows: frame.Rows()[:4]})
	if err != nil {
		t.Fatal(err)
	}
	h, w := Handler(svc), discardWriter{http.Header{}}
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	rd := bytes.NewReader(nil)
	r.Body, r.ContentLength = rewindBody{rd}, int64(len(body))
	serve := func() {
		rd.Reset(body)
		h.ServeHTTP(w, r)
	}
	serve() // the rows are cached from here on
	without := testing.AllocsPerRun(100, serve)
	r.Header.Set(TraceHeader, "00000000000000ab")
	if with := testing.AllocsPerRun(100, serve); with != without {
		t.Errorf("an untraced predict allocated %.1f times with an upstream trace ID, %.1f without: want the same", with, without)
	}
}

// A request's trace parent comes from its X-Trace-Id header only: a body
// that names it is refused as an unknown field by both decoders, which leave
// TraceParent 0, and the hop's encoder never writes it.
func TestTraceParentIsNotOnTheWire(t *testing.T) {
	for _, body := range []string{
		`{"system":"theta","row":[1],"TraceParent":7}`,
		`{"system":"theta","row":[1],"trace_parent":7}`,
	} {
		c := new(predictCall)
		if c.decodeRequest([]byte(body)) || c.req.TraceParent != 0 {
			t.Errorf("fast path decoded %q with TraceParent %d", body, c.req.TraceParent)
		}
		var req PredictRequest
		if err := decodeRequestJSON([]byte(body), nil, &req); err == nil || !strings.Contains(err.Error(), "unknown field") || req.TraceParent != 0 {
			t.Errorf("encoding/json decoded %q with TraceParent %d (%v), want an unknown field", body, req.TraceParent, err)
		}
	}
	b, err := AppendPredictRequest(nil, &PredictRequest{System: "theta", Row: []float64{1}, TraceParent: 7})
	if want := `{"system":"theta","row":[1]}`; err != nil || string(b) != want {
		t.Errorf("a request with a trace parent encodes as %s (%v), want %s", b, err, want)
	}
}

// The reply shape the hop's fast path reads is encoding/json's rendering of
// PredictResponse: a guarded, traced, timed 16-row reply from ioserve's own
// handler must decode without the fallback. A renamed tag or a reordered
// field makes decodeResponse refuse it and fails this test.
func TestHandlerReplyTakesTheHopFastPath(t *testing.T) {
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{TraceEvery: 1})
	t.Cleanup(svc.Close)
	body, err := json.Marshal(PredictRequest{System: "theta", Rows: frame.Rows()[:16]})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	Handler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var fast PredictResponse
	if !decodeResponse(rec.Body.Bytes(), &fast) {
		t.Fatalf("the hop's fast path refused ioserve's reply: %s", rec.Body.String())
	}
	if want, err := decodeReplyJSON(rec.Body.Bytes()); err != nil || !sameResponse(&fast, &want) {
		t.Fatalf("fast path decoded %+v, encoding/json %+v (%v)", fast, want, err)
	}
	if fast.Count != 16 || len(fast.Predictions) != 16 || fast.TraceID == "" || fast.ServerTimings == nil {
		t.Fatalf("want a traced, timed 16-row reply, got %d rows, trace %q, timings %v", len(fast.Predictions), fast.TraceID, fast.ServerTimings)
	}
	for i, p := range fast.Predictions {
		if !p.Guard.set {
			t.Fatalf("prediction %d is not guarded: %+v", i, p.Guard)
		}
	}
}

// The row-block lifetime rule under fire: every call's row block goes back
// to the pool (release keeps it unconditionally), including the calls whose
// 1 ms deadline expires while they wait for a slot or while the chaos
// latency holds them inside their evaluation. Concurrent callers with
// distinct rows reuse those blocks at once, so a block still read after its
// call returned is a race report under -race, or a prediction that belongs
// to another caller's row.
func TestRowBlockIsRecycledUnderExpiringDeadlines(t *testing.T) {
	frame, _, v2 := fixture(t)
	inj := chaos.NewInjector(chaos.Config{Latency: 3 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(fixtureRegistry(t), Options{Workers: 2, CacheSize: 256, Chaos: inj})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(ts.Close)

	const callers, perCaller, batch = 8, 24, 3
	var served, expired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				rows := make([][]float64, batch)
				for k := range rows {
					rows[k] = append([]float64(nil), frame.Row((c*perCaller+i+k)%frame.Len())...)
					rows[k][0] += float64((c*perCaller+i)*batch + k + 1) // no two rows of the run are equal
				}
				body, err := json.Marshal(PredictRequest{System: "theta", Rows: rows})
				if err != nil {
					t.Error(err)
					return
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					req.Header.Set(DeadlineHeader, "1")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusGatewayTimeout:
					expired.Add(1)
				case resp.StatusCode != http.StatusOK || err != nil || len(pr.Predictions) != batch:
					t.Errorf("caller %d request %d: status %d, decode error %v, %d predictions", c, i, resp.StatusCode, err, len(pr.Predictions))
				default:
					served.Add(1)
					for k, p := range pr.Predictions {
						if want := v2.Model.Predict(rows[k]); math.Float64bits(p.Log10Throughput) != math.Float64bits(want) {
							t.Errorf("caller %d request %d row %d: served %v, tree walk of its own row %v", c, i, k, p.Log10Throughput, want)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if served.Load() == 0 || expired.Load() == 0 {
		t.Fatalf("%d served, %d expired: the test needs both", served.Load(), expired.Load())
	}
}

// The one observable difference the codec brings: a body is read to its end
// before it is parsed, so a request whose first bytes are already malformed
// holds its admission slot until the client has sent the rest (up to the
// 16 MiB bound), as a well-formed body always did. Everything else is as
// before: the slot sheds others while held and is freed by the 400, the 400
// is encoding/json's for those bytes, and the deadline header (which never
// covered the body read) is not consulted for a body that does not decode.
func TestMalformedPrefixHoldsItsSlotUntilTheBodyEnds(t *testing.T) {
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 1, HardLimit: 1})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Gate: gate, DefaultDeadline: time.Minute}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)
	good, err := json.Marshal(PredictRequest{System: "theta", Row: frame.Row(0)})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		text   string
		err    error
	}
	post := func(body io.Reader) reply {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", body)
		if err != nil {
			return reply{err: err}
		}
		req.Header.Set(DeadlineHeader, "1") // 1 ms: far less than the upload takes
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return reply{err: err}
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		return reply{resp.StatusCode, string(text), err}
	}

	prefix := []byte(`{"bogus":1,"system":"theta","row":[`)
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // a failure mid-upload must not leave the server reading
	done := make(chan reply, 1)
	go func() { done <- post(pr) }()
	if _, err := pw.Write(prefix); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); gate.Status().Inflight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the upload never took its admission slot")
		}
	}
	if got := post(bytes.NewReader(good)); got.err != nil || got.status != http.StatusTooManyRequests {
		t.Fatalf("request beside the held slot: %d %s (%v), want 429", got.status, got.text, got.err)
	}
	rest := append(bytes.Repeat([]byte("1,"), 1<<20), "1]}"...)
	if _, err := pw.Write(rest); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	got := <-done
	wantErr := decodeRequestJSON(append(prefix, rest...), nil, new(PredictRequest))
	wantBody, _ := json.Marshal(map[string]string{"error": "decoding request: " + wantErr.Error()})
	if got.err != nil || got.status != http.StatusBadRequest || got.text != string(wantBody)+"\n" {
		t.Fatalf("malformed upload: %d %q (%v), want 400 %q", got.status, got.text, got.err, wantBody)
	}
	for deadline := time.Now().Add(5 * time.Second); gate.Status().Inflight != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the 400 did not free the admission slot")
		}
	}
	if c := callPool.Get().(*predictCall); cap(c.buf) > maxPooledCall {
		t.Fatalf("the upload's %d-byte buffer went back to the pool", cap(c.buf))
	}
}
