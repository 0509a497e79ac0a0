// Package chaos is the serving stack's fault-injection harness: seeded,
// probability-gated faults (evaluation latency, evaluation errors,
// evaluation panics, registry-dir corruption) that serve's evaluation and
// ioserve consult at the points where real faults would land. It exists to
// *test* the resilience layer — admission shedding under injected latency,
// panic isolation in evaluation, the reloader's corrupt-dir policy — so
// nothing in it should ever be enabled outside a chaos run.
//
// The package depends on nothing else in the repo; serve.Service holds an
// *Injector for its evaluations and a nil Injector injects nothing, so the
// hot path pays one nil check when chaos is off.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected evaluation failures, so
// callers (and tests) can tell a chaos fault from a real one.
var ErrInjected = errors.New("chaos: injected fault")

// Config is one chaos specification, parsed from the -chaos flag.
type Config struct {
	// Latency/LatencyProb: sleep Latency before evaluating a request's rows,
	// with probability LatencyProb.
	Latency     time.Duration
	LatencyProb float64
	// ErrorProb: fail a request's evaluation with ErrInjected.
	ErrorProb float64
	// PanicProb: panic inside a request's evaluation (serve's recover must
	// contain it).
	PanicProb float64
	// CorruptProb: on each corruption tick, write a garbage version dir
	// into the registry with this probability (exercises the reloader's
	// skip-and-keep-serving policy and its backoff/breaker).
	CorruptProb float64
	// HeartbeatLossProb: drop a fleet-membership heartbeat before it is
	// sent, with this probability — a lossy network between replica and
	// router. Enough consecutive losses lapse the lease and the router
	// ejects the member; the agent's next delivered heartbeat (404) makes
	// it re-register, exercising the flap-damping path.
	HeartbeatLossProb float64
	// PartitionProb: fail a fleet registration-plane call (register,
	// heartbeat, deregister) at the transport with this probability — a
	// partition between replica and router that the serving path may not
	// share.
	PartitionProb float64
}

// Parse decodes a -chaos spec: comma-separated directives out of
// "latency=DUR:PROB", "error=PROB", "panic=PROB", "corrupt=PROB",
// "hbloss=PROB", "partition=PROB", e.g.
// "latency=5ms:0.2,error=0.1,panic=0.02,corrupt=0.1,hbloss=0.3".
// Probabilities are in [0,1]; a latency directive without ":PROB" applies
// always.
func Parse(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: directive %q is not key=value", part)
		}
		switch key {
		case "latency":
			durStr, probStr, hasProb := strings.Cut(val, ":")
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return cfg, fmt.Errorf("chaos: bad latency duration %q", durStr)
			}
			cfg.Latency, cfg.LatencyProb = dur, 1
			if hasProb {
				if cfg.LatencyProb, err = parseProb(probStr); err != nil {
					return cfg, err
				}
			}
		case "error", "panic", "corrupt", "hbloss", "partition":
			p, err := parseProb(val)
			if err != nil {
				return cfg, err
			}
			switch key {
			case "error":
				cfg.ErrorProb = p
			case "panic":
				cfg.PanicProb = p
			case "corrupt":
				cfg.CorruptProb = p
			case "hbloss":
				cfg.HeartbeatLossProb = p
			case "partition":
				cfg.PartitionProb = p
			}
		default:
			return cfg, fmt.Errorf("chaos: unknown directive %q (want latency/error/panic/corrupt/hbloss/partition)", key)
		}
	}
	return cfg, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("chaos: probability %q not in [0,1]", s)
	}
	return p, nil
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return (c.Latency > 0 && c.LatencyProb > 0) || c.ErrorProb > 0 || c.PanicProb > 0 ||
		c.CorruptProb > 0 || c.HeartbeatLossProb > 0 || c.PartitionProb > 0
}

// Injector draws seeded fault decisions from a Config. A nil *Injector
// injects nothing, so callers thread it unconditionally.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	// Sleep overrides the latency-injection sleep (tests); nil uses
	// time.Sleep.
	Sleep func(time.Duration)
}

// NewInjector builds an injector for cfg, seeded so chaos runs are
// reproducible. Returns nil when cfg injects nothing.
func NewInjector(cfg Config, seed int64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

func (in *Injector) hit(p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

// EvalDelay blocks for the configured injected latency when the draw
// hits; serve calls it at the top of each evaluation, while the caller
// holds its evaluation slot.
func (in *Injector) EvalDelay() {
	if in == nil || in.cfg.Latency <= 0 || !in.hit(in.cfg.LatencyProb) {
		return
	}
	if in.Sleep != nil {
		in.Sleep(in.cfg.Latency)
		return
	}
	time.Sleep(in.cfg.Latency)
}

// EvalError returns ErrInjected when the draw hits, nil otherwise.
func (in *Injector) EvalError() error {
	if in != nil && in.hit(in.cfg.ErrorProb) {
		return fmt.Errorf("%w: evaluation error", ErrInjected)
	}
	return nil
}

// EvalPanic panics when the draw hits — inside serve's recover region,
// proving an evaluation panic fails one request, not the process.
func (in *Injector) EvalPanic() {
	if in != nil && in.hit(in.cfg.PanicProb) {
		panic("chaos: injected evaluation panic")
	}
}

// CorruptTick reports whether this corruption tick should corrupt the
// registry.
func (in *Injector) CorruptTick() bool { return in != nil && in.hit(in.cfg.CorruptProb) }

// DropHeartbeat reports whether this membership heartbeat should be lost
// in the "network" (never sent). The fleet agent consults it before each
// beat.
func (in *Injector) DropHeartbeat() bool { return in != nil && in.hit(in.cfg.HeartbeatLossProb) }

// RegistrationPartitioned reports whether this registration-plane call
// (register, heartbeat, deregister) should fail at the transport, as if
// the replica↔router path were partitioned.
func (in *Injector) RegistrationPartitioned() bool { return in != nil && in.hit(in.cfg.PartitionProb) }

// corruptVersion is the bogus version number corruption writes. It is
// fixed (and absurdly high, so it would win any max-version promotion if
// it ever loaded) and overwritten in place on each strike: the registry
// gains exactly one garbage dir per system, not an unbounded pile, and
// rewriting it changes the dir fingerprint so every reload poll retries —
// exactly the hot-loop the reloader's backoff exists to damp.
const corruptVersion = "v999983"

// CorruptRegistry plants a garbage version dir under one system of the
// registry root (non-destructive: live version dirs are never touched).
// Returns the corrupted path.
func (in *Injector) CorruptRegistry(root string) (string, error) {
	if in == nil {
		return "", nil
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return "", err
	}
	var systems []string
	for _, ent := range ents {
		if ent.IsDir() {
			systems = append(systems, ent.Name())
		}
	}
	if len(systems) == 0 {
		return "", fmt.Errorf("chaos: no systems under %s", root)
	}
	in.mu.Lock()
	sys := systems[in.rng.Intn(len(systems))]
	nonce := in.rng.Int63()
	in.mu.Unlock()
	dir := filepath.Join(root, sys, corruptVersion)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// Garbage where the version's one file belongs; the nonce ends it, so
	// the fingerprint (size, mtime, the last four bytes) changes across
	// strikes.
	body := fmt.Sprintf("chaos corruption %d", nonce)
	if err := os.WriteFile(filepath.Join(dir, "bundle.bin"), []byte(body), 0o644); err != nil {
		return "", err
	}
	return dir, nil
}
