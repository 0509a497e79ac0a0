package proc

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The nine shared flags keep the names, types and defaults both binaries
// had before they shared them; -addr's default is the caller's.
func TestRegisterKeepsTheProcessFlags(t *testing.T) {
	t.Setenv("IOSERVE_ADMIN_TOKEN", "tok")
	fs := flag.NewFlagSet("shell", flag.ContinueOnError)
	Register(fs, ":9999")
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = fmt.Sprintf("%T %s", f.Value.(flag.Getter).Get(), f.DefValue) })
	want := map[string]string{
		"addr":           "string :9999",
		"admin-token":    "string tok",
		"trace-sample":   "float64 0",
		"trace-buffer":   "int 256",
		"slo":            "string ",
		"pprof-addr":     "string ",
		"shutdown-grace": "time.Duration 10s",
		"log-format":     "string text",
		"log-level":      "string info",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags %v\nwant %v", got, want)
	}
}

// Cancelling Serve's context runs the drain hook first, with the started
// hook's context already ended, then lets the in-flight request finish, and
// only then returns nil, having logged "shutdown complete".
func TestServeDrainsInOrder(t *testing.T) {
	// A port the kernel just handed out is free for Serve to bind.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var logged bytes.Buffer
	s := &Shell{Addr: addr, ShutdownGrace: 5 * time.Second, Logger: slog.New(slog.NewTextHandler(&logged, nil))}
	var (
		mu    sync.Mutex
		order []string
	)
	note := func(step string) {
		mu.Lock()
		order = append(order, step)
		mu.Unlock()
	}
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		note("request")
		fmt.Fprint(w, "done")
	})
	reply := make(chan error, 1)
	var startedCtx context.Context
	started := func(ctx context.Context) {
		startedCtx = ctx
		go func() {
			resp, err := http.Get("http://" + addr)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			reply <- err
		}()
	}
	drain := func(context.Context) {
		if startedCtx.Err() == nil {
			t.Error("the started hook's context is still live at drain")
		}
		note("hook")
		close(release) // the request can finish only once the hook has run
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, h, started, drain) }()
	<-entered
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	note("returned")
	if err := <-reply; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if got := strings.Join(order, " "); got != "hook request returned" {
		t.Errorf("order %q, want hook, request, returned", got)
	}
	if log := logged.String(); !strings.Contains(log, "shutdown complete") {
		t.Errorf("log %q has no shutdown complete", log)
	}
}
