package serve_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"iotaxo/internal/fleet"
	"iotaxo/internal/gbt"
	"iotaxo/internal/serve"
)

// The public JSON surface, pinned byte for byte: one request→response file
// for ioserve and one for iorouter (an external test package, so that it
// can stand a router in front of the service). Each file is
// "request\n---\nresponse".

var updateGolden = flag.Bool("update", false, "rewrite the golden wire files from what the handlers answer now")

// volatileWire matches what differs between two runs of one request: stage
// timings and trace identifiers.
var volatileWire = regexp.MustCompile(`(_ns":)\d+|("trace_ids?":\[?")[0-9a-f]+`)

// checkGoldenWire posts the request half of a golden file to h and compares
// the answer, volatile values zeroed, to the response half.
func checkGoldenWire(t *testing.T, h http.Handler, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	request, want, ok := strings.Cut(string(raw), "\n---\n")
	if !ok {
		t.Fatalf("%s: no request/response separator", path)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(request)))
	got := volatileWire.ReplaceAllString(rec.Body.String(), "${1}${2}0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, got)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(request+"\n---\n"+got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != want {
		t.Errorf("%s: the wire moved (rerun with -update only if that was intended)\n got %s\nwant %s", path, got, want)
	}
}

// goldenService serves the hand-written three-feature model next to the
// golden files: its leaves are binary fractions, so the predictions are
// exact on any platform and no retraining can move the files.
func goldenService(t *testing.T) *serve.Service {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden/model.gbt.bin")
	if err != nil {
		t.Fatal(err)
	}
	model, err := gbt.ReadBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add(&serve.ModelVersion{System: "theta", Version: 3, Columns: []string{"a", "b", "c"}, Model: model}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(reg, serve.Options{CacheSize: 64})
	t.Cleanup(svc.Close)
	return svc
}

func TestGoldenWireIoserve(t *testing.T) {
	checkGoldenWire(t, serve.Handler(goldenService(t)), "testdata/golden/ioserve_predict.golden")
}

func TestGoldenWireIorouter(t *testing.T) {
	rt, err := fleet.NewRouter(fleet.RouterConfig{HealthInterval: time.Hour},
		fleet.NewLocal("r0", goldenService(t), nil), fleet.NewLocal("r1", goldenService(t), nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	checkGoldenWire(t, fleet.Handler(rt), "testdata/golden/iorouter_predict.golden")
}
