package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Admin-token authn: the three mutating endpoints must reject requests
// without the configured token (401, constant-time compare) while the
// read and predict paths stay open.
func TestAdminTokenAuth(t *testing.T) {
	const token = "s3cr3t-token"
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{CacheSize: 64})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{AdminToken: token}))
	t.Cleanup(ts.Close)

	post := func(path string, body any, hdr map[string]string) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	action := versionActionRequest{System: "theta", Version: 1}

	for _, path := range []string{"/v1/versions/promote", "/v1/versions/rollback", "/v1/versions/reload"} {
		if resp := post(path, action, nil); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("POST %s without token: status %d, want 401", path, resp.StatusCode)
		}
		if resp := post(path, action, map[string]string{"Authorization": "Bearer wrong"}); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("POST %s with wrong token: status %d, want 401", path, resp.StatusCode)
		}
	}

	// Correct token via both header forms.
	if resp := post("/v1/versions/promote", action, map[string]string{"Authorization": "Bearer " + token}); resp.StatusCode != http.StatusOK {
		t.Errorf("promote with bearer token: status %d, want 200", resp.StatusCode)
	}
	if resp := post("/v1/versions/rollback", versionActionRequest{System: "theta"},
		map[string]string{"X-Admin-Token": token}); resp.StatusCode != http.StatusOK {
		t.Errorf("rollback with X-Admin-Token: status %d, want 200", resp.StatusCode)
	}
	// Reload without a reloader attached is 409 — authn passed, handler ran.
	if resp := post("/v1/versions/reload", map[string]any{}, map[string]string{"X-Admin-Token": token}); resp.StatusCode != http.StatusConflict {
		t.Errorf("reload with token: status %d, want 409 (no reloader)", resp.StatusCode)
	}

	// Read and predict paths are never gated.
	for _, path := range []string{"/v1/models", "/v1/versions", "/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with authn on: status %d, want 200", path, resp.StatusCode)
		}
	}
	if resp := post("/v1/predict", PredictRequest{System: "theta", Row: frame.Row(0)}, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("predict with authn on: status %d, want 200", resp.StatusCode)
	}
}

func TestAdminAuthorized(t *testing.T) {
	mk := func(hdr map[string]string) *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/x", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		return req
	}
	if !AdminAuthorized(mk(nil), "") {
		t.Error("empty token must disable authn")
	}
	if AdminAuthorized(mk(nil), "tok") {
		t.Error("missing header accepted")
	}
	if AdminAuthorized(mk(map[string]string{"Authorization": "Bearer to"}), "tok") {
		t.Error("prefix of token accepted")
	}
	if !AdminAuthorized(mk(map[string]string{"Authorization": "Bearer tok"}), "tok") {
		t.Error("bearer token rejected")
	}
	if !AdminAuthorized(mk(map[string]string{"X-Admin-Token": "tok"}), "tok") {
		t.Error("X-Admin-Token rejected")
	}
}
