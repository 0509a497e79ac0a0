package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"iotaxo/cmd/internal/proc"
	"iotaxo/internal/drift"
	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
)

// ioserve's process flags are the shell's: same types and defaults as
// iorouter's, -addr apart.
func TestSharedFlagsAreTheShells(t *testing.T) {
	fs := flag.NewFlagSet("ioserve", flag.ContinueOnError)
	newConfig(fs)
	shell := flag.NewFlagSet("shell", flag.ContinueOnError)
	proc.Register(shell, ":8080")
	shell.VisitAll(func(want *flag.Flag) {
		got := fs.Lookup(want.Name)
		if got == nil || fmt.Sprintf("%T", got.Value) != fmt.Sprintf("%T", want.Value) || got.DefValue != want.DefValue {
			t.Errorf("-%s is %+v, want the shell's %+v", want.Name, got, want)
		}
	})
}

// /v1/slo answers 409 without -slo. With it, predict requests, posted and
// framed, and feedback requests are counted under their classes in
// ioserve_slo_requests_total.
func TestSLOSurface(t *testing.T) {
	reg, err := serve.Bootstrap(serve.BootstrapConfig{
		Systems: []string{"theta"}, Jobs: 700, Versions: 1, Trees: 24, Depth: 5, EnsembleSize: 3, Epochs: 4, Seed: 11,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{CacheSize: 1 << 12})
	t.Cleanup(svc.Close)
	do := func(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		var b []byte
		if body != nil {
			if b, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec
	}

	rec := do(newHandler(svc, serve.HandlerConfig{}, nil, nil), http.MethodGet, "/v1/slo", nil)
	if want := `{"error":"SLO tracking disabled (start ioserve with -slo)"}` + "\n"; rec.Code != http.StatusConflict || rec.Body.String() != want {
		t.Errorf("/v1/slo without -slo: %d %q, want 409 %q", rec.Code, rec.Body.String(), want)
	}

	specs, err := obs.ParseSLO("predict:avail=99;control:avail=99")
	if err != nil {
		t.Fatal(err)
	}
	ctl := drift.New(svc, drift.Config{})
	t.Cleanup(ctl.Close)
	h := newHandler(svc, serve.HandlerConfig{}, ctl, obs.NewSLO(specs))
	row := make([]float64, reg.List()[0].Features)
	if rec := do(h, http.MethodPost, "/v1/predict", serve.PredictRequest{System: "theta", Row: row}); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}
	feedback := drift.FeedbackRequest{System: "theta", Rows: [][]float64{row}, Actual: []float64{1e9}}
	if rec := do(h, http.MethodPost, "/v1/feedback", feedback); rec.Code/100 != 2 {
		t.Fatalf("feedback: %d %s", rec.Code, rec.Body)
	}
	// A framed predict, a router's hop, counts as class predict too.
	ts := httptest.NewServer(h)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", serve.HopPath, serve.HopProtocol)
	frame, err := serve.AppendHopRequest(nil, &serve.PredictRequest{System: "theta", Row: row}, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(frame)
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("hop upgrade: %v, %+v", err, resp)
	}
	head := make([]byte, serve.HopReplyHead)
	if _, err := io.ReadFull(br, head); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := serve.ParseHopReply(head); status != http.StatusOK {
		t.Fatalf("framed predict: %d", status)
	}
	if rec := do(h, http.MethodGet, "/v1/slo", nil); rec.Code != http.StatusOK {
		t.Errorf("/v1/slo with -slo: %d %s", rec.Code, rec.Body)
	}
	fams, err := obs.ParsePromText(do(h, http.MethodGet, "/metrics", nil).Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	counted := map[string]float64{}
	for _, f := range fams {
		if f.Name == "ioserve_slo_requests_total" {
			for _, s := range f.Samples {
				counted[s.Labels] = s.Value
			}
		}
	}
	want := map[string]float64{}
	for _, spec := range specs {
		want[obs.Labels("class", spec.Class, "objective", spec.String())] = map[string]float64{"predict": 2, "control": 1}[spec.Class]
	}
	if fmt.Sprint(counted) != fmt.Sprint(want) {
		t.Errorf("ioserve_slo_requests_total %v, want %v", counted, want)
	}
}
