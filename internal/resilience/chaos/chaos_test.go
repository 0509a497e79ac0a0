package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	cfg, err := Parse("latency=5ms:0.2,error=0.1,panic=0.02,corrupt=0.3")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Latency: 5 * time.Millisecond, LatencyProb: 0.2, ErrorProb: 0.1, PanicProb: 0.02, CorruptProb: 0.3}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed spec reports disabled")
	}
}

func TestParseLatencyWithoutProb(t *testing.T) {
	cfg, err := Parse("latency=3ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Latency != 3*time.Millisecond || cfg.LatencyProb != 1 {
		t.Fatalf("parsed %+v", cfg)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	cfg, err := Parse("  ")
	if err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"error", "error=2", "error=-0.1", "latency=bogus", "latency=5ms:nope", "jitter=0.5"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestInjectorDisabled(t *testing.T) {
	if inj := NewInjector(Config{}, 1); inj != nil {
		t.Fatal("empty config built an injector")
	}
	var inj *Injector
	inj.EvalDelay()
	inj.EvalPanic()
	if err := inj.EvalError(); err != nil {
		t.Fatalf("nil injector injected %v", err)
	}
	if inj.CorruptTick() {
		t.Fatal("nil injector corrupt tick hit")
	}
}

func TestInjectorFaults(t *testing.T) {
	inj := NewInjector(Config{Latency: time.Millisecond, LatencyProb: 1, ErrorProb: 1, PanicProb: 1}, 7)
	slept := time.Duration(0)
	inj.Sleep = func(d time.Duration) { slept = d }
	inj.EvalDelay()
	if slept != time.Millisecond {
		t.Fatalf("slept %v", slept)
	}
	if err := inj.EvalError(); !errors.Is(err, ErrInjected) {
		t.Fatalf("EvalError = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EvalPanic did not panic at prob 1")
			}
		}()
		inj.EvalPanic()
	}()
}

func TestCorruptRegistry(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "theta", "v1"), 0o755); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(Config{CorruptProb: 1}, 3)
	dir, err := inj.CorruptRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir) != corruptVersion || filepath.Dir(dir) != filepath.Join(root, "theta") {
		t.Fatalf("corrupted %s", dir)
	}
	first, err := os.ReadFile(filepath.Join(dir, "bundle.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// The live version dir is untouched; a second strike overwrites the same
	// bogus dir with different bytes (the fingerprint must keep changing).
	if _, err := os.Stat(filepath.Join(root, "theta", "v1")); err != nil {
		t.Fatalf("live dir touched: %v", err)
	}
	if _, err := inj.CorruptRegistry(root); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "bundle.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) == string(second) {
		t.Fatal("second strike wrote identical garbage; fingerprint would not change")
	}
	ents, err := os.ReadDir(filepath.Join(root, "theta"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d entries under theta, want live + one bogus dir", len(ents))
	}
}

func TestCorruptRegistryEmptyRoot(t *testing.T) {
	inj := NewInjector(Config{CorruptProb: 1}, 3)
	if _, err := inj.CorruptRegistry(t.TempDir()); err == nil {
		t.Fatal("no error for a registry with no systems")
	}
}

func TestParseMembershipFaults(t *testing.T) {
	cfg, err := Parse("hbloss=0.4,partition=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatLossProb != 0.4 || cfg.PartitionProb != 0.1 {
		t.Fatalf("parsed %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("membership-only spec reports disabled")
	}
	for _, bad := range []string{"hbloss=2", "partition=-0.5", "hbloss="} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestInjectorMembershipFaults(t *testing.T) {
	// Prob 1 always fires, prob 0 never does, and a nil injector (chaos
	// off) injects nothing — the agent calls these unconditionally.
	inj := NewInjector(Config{HeartbeatLossProb: 1, PartitionProb: 1}, 7)
	if !inj.DropHeartbeat() {
		t.Fatal("DropHeartbeat missed at prob 1")
	}
	if !inj.RegistrationPartitioned() {
		t.Fatal("RegistrationPartitioned missed at prob 1")
	}

	quiet := NewInjector(Config{ErrorProb: 1}, 7)
	for i := 0; i < 100; i++ {
		if quiet.DropHeartbeat() || quiet.RegistrationPartitioned() {
			t.Fatal("membership fault fired at prob 0")
		}
	}

	var off *Injector
	if off.DropHeartbeat() || off.RegistrationPartitioned() {
		t.Fatal("nil injector fired a membership fault")
	}
}
