package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"iotaxo/internal/fleet"
	"iotaxo/internal/serve"
)

// The server side is the production wiring at production defaults: the
// ioserve flag defaults (cache 65536; batcher 32 rows, 2 ms, 2 workers from
// the zero Options), no gate, no tracing, no shadow; the iorouter defaults
// (zero RouterConfig and RemoteConfig) over three static replicas.
const (
	cacheSize     = 1 << 16
	fleetReplicas = 3
	fillBatch     = 32 // rows per cache-fill request: one full wave
)

// listener serves one handler on an ephemeral loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// node is one ioserve replica: its own registry load, service and handler,
// and a loopback listener when it is reached over HTTP.
type node struct {
	svc     *serve.Service
	handler http.Handler
	lis     *listener
}

// setupTimes splits one set-up.
type setupTimes struct {
	total, loadRegistry, firstPredict time.Duration
}

func startNode(dir string, opt serve.Options, listening bool, tm *setupTimes) (*node, error) {
	t0 := time.Now()
	reg, err := serve.LoadRegistry(dir)
	if err != nil {
		return nil, err
	}
	tm.loadRegistry += time.Since(t0)
	n := &node{svc: serve.NewService(reg, opt)}
	n.handler = serve.NewHandler(n.svc, serve.HandlerConfig{})
	if listening {
		if n.lis, err = listen(n.handler); err != nil {
			n.svc.Close()
			return nil, err
		}
	}
	return n, nil
}

func (n *node) close() {
	if n.lis != nil {
		n.lis.close()
	}
	n.svc.Close()
}

// newRouter starts a default-policy router over nodes, reached in process
// (fleet.Local) or over loopback HTTP (fleet.Remote). Replica names are
// fixed, not host:port, so ring ownership is the same in every run.
func newRouter(nodes []*node, remote bool) (*fleet.Router, error) {
	backends := make([]fleet.Predictor, len(nodes))
	for i, n := range nodes {
		name := fmt.Sprintf("r%d", i)
		if remote {
			backends[i] = fleet.NewRemote(name, n.lis.url, fleet.RemoteConfig{})
		} else {
			backends[i] = fleet.NewLocal(name, n.svc, nil)
		}
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{}, backends...)
	if err != nil {
		return nil, err
	}
	rt.Start()
	return rt, nil
}

// stack is everything a workload's requests cross, below the caller.
type stack struct {
	nodes  []*node
	router *fleet.Router // fleet-split only
	front  *listener     // the router's listener
}

func buildStack(k kind, dir string, tm *setupTimes) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	replicas := 1
	if k == kindFleet {
		replicas = fleetReplicas
	}
	for i := 0; i < replicas; i++ {
		n, err := startNode(dir, serve.Options{CacheSize: cacheSize}, k != kindEmbed, tm)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	if k == kindFleet {
		if s.router, err = newRouter(s.nodes, true); err != nil {
			return nil, err
		}
		if s.front, err = listen(fleet.NewHandler(s.router, fleet.HandlerConfig{})); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.router != nil {
		s.router.Stop()
		// fleet.Remote's default client pools its replica connections here.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// fillCaches sends every replica rows unique rows, in process and all
// replicas at once, so that the measured phase starts where a long-running
// server is: caches full, each new row evicting an old one, and a resident
// set that does not depend on how many rows this run happens to serve.
func (s *stack) fillCaches(p *pool, seed uint64, rows int) error {
	errs := make([]error, len(s.nodes))
	var wg sync.WaitGroup
	for i, n := range s.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newStream(p, shape{batch: fillBatch}, seed, laneFill)
			d := &predictDoer{svc: n.svc, p: p}
			var refs []rowRef
			for sent := 0; sent < rows && errs[i] == nil; sent += fillBatch {
				refs = st.nextRefs(refs[:0])
				_, errs[i] = d.do(refs, false)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// url is where the workload's HTTP requests go.
func (s *stack) url() string {
	if s.front != nil {
		return s.front.url
	}
	return s.nodes[0].lis.url
}

// cacheCounts sums the replicas' cache hits and rows served so far.
func (s *stack) cacheCounts() (hits, rows uint64) {
	for _, n := range s.nodes {
		hits += n.svc.Metrics().CacheHits.Load()
		rows += n.svc.Metrics().Predictions.Load()
	}
	return hits, rows
}
