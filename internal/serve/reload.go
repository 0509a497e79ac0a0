package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iotaxo/internal/resilience"
)

// Live registry reload. The paper's deployment story only works if a
// retrained model version can replace a degrading one without restarting
// the service, so the Reloader watches the registry root by polling: each
// poll fingerprints every <system>/v<N> directory (its bundle.bin's size,
// mtime and checksum trailer), loads new or changed directories through the
// same validating loadVersionDir path as startup, and applies the diff to
// the Registry — whose copy-on-write snapshot makes each change one atomic
// pointer swap for readers. Systems whose version set changed get their
// prediction-cache entries invalidated.
//
// Failure policy: a directory that fails to load (half-written, hostile,
// or truncated) is counted and skipped; the previously loaded bundle keeps
// serving and the next poll retries. Startup is strict (LoadRegistry fails
// the process on any bad bundle); live reload must not take serving down.

// errScanFailed marks a poll that failed wholesale — the registry root
// itself could not be scanned, as opposed to individual version
// directories being skipped under the keep-serving policy.
var errScanFailed = errors.New("serve: reload scan failed")

// ReloadStats summarizes one poll's applied changes.
type ReloadStats struct {
	// Added / Replaced / Removed count version bundles swapped live.
	Added    int `json:"added"`
	Replaced int `json:"replaced"`
	Removed  int `json:"removed"`
	// Invalidated counts cache entries dropped for bumped systems.
	Invalidated int `json:"invalidated"`
	// Failed counts version directories that did not load this poll.
	Failed int `json:"failed"`
}

// Changed reports whether the poll altered the live version set.
func (s ReloadStats) Changed() bool { return s.Added+s.Replaced+s.Removed > 0 }

// scanEntry describes one on-disk version directory.
type scanEntry struct {
	dir         string
	system      string
	version     int
	fingerprint string
}

// Reloader keeps a Service's registry in sync with its on-disk root.
type Reloader struct {
	svc      *Service
	root     string
	interval time.Duration

	// backoff stretches the polling delay while polls fail (a corrupt
	// version dir is retried every poll — without backoff that is a hot
	// loop of load+validate work); breaker (optional, via SetResilience)
	// trips on consecutive wholesale scan failures and pauses polling
	// entirely until a cooldown probe.
	backoff resilience.Backoff
	breaker *resilience.Breaker

	// mu serializes polls (ticker loop, forced polls via the admin
	// endpoint, and tests calling Poll directly).
	mu    sync.Mutex
	known map[string]scanEntry // "system/vN" -> what was loaded from it

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
	started   bool
}

// NewReloader builds a reloader over svc's registry for the given root and
// attaches it to the service (exposing the forced-poll admin endpoint).
// The current on-disk state is fingerprinted immediately: version
// directories already present in the registry are assumed current (the
// registry was just loaded from this root), anything else is picked up by
// the first poll. Call Start to begin polling; interval <= 0 leaves the
// reloader manual-only (Poll / the admin endpoint).
//
// Known limitation: a version directory rewritten IN PLACE in the window
// between the registry load and this constructor is fingerprinted in its
// new state against the old loaded bundle, so that one rewrite is only
// picked up on the directory's next change. Publishing new version
// directories (the documented protocol, what SaveVersion and BumpVersion
// do) is never affected.
func NewReloader(svc *Service, root string, interval time.Duration) (*Reloader, error) {
	r := &Reloader{
		svc:      svc,
		root:     root,
		interval: interval,
		known:    make(map[string]scanEntry),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.backoff = resilience.Backoff{Base: interval, Max: 8 * interval}
	scan, _, err := r.scan()
	if err != nil {
		return nil, err
	}
	for key, ent := range scan {
		if _, err := svc.reg.Get(ent.system, ent.version); err == nil {
			r.known[key] = ent
		}
	}
	svc.attachReloader(r)
	return r, nil
}

// SetResilience attaches a circuit breaker to the poll loop (call before
// Start). The breaker observes wholesale scan failures only — per-
// directory load failures stay under the documented skip-and-keep-serving
// policy and merely stretch the backoff — and while it is open the ticker
// loop skips polls; a forced poll (the admin endpoint) still runs and acts
// as a manual probe.
func (r *Reloader) SetResilience(b *resilience.Breaker) { r.breaker = b }

// Start launches the polling loop (idempotent, no-op when interval <= 0).
func (r *Reloader) Start() {
	if r.interval <= 0 {
		return
	}
	r.startOnce.Do(func() {
		r.started = true
		go r.loop()
	})
}

// Close stops the polling loop and waits for it to exit.
func (r *Reloader) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(func() { close(r.stop) })
	if r.started {
		<-r.done
	}
}

func (r *Reloader) loop() {
	defer close(r.done)
	delay := r.interval
	fails := 0
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		if r.breaker.Allow() {
			// Errors are counted in metrics; the loop itself never dies.
			// Failing polls stretch the next delay with jittered backoff —
			// a persistently corrupt version dir re-validates every poll,
			// and retrying that at full tick rate is a hot loop.
			if _, err := r.Poll(); err != nil {
				fails++
			} else {
				fails = 0
			}
		}
		if fails > 0 {
			delay = r.backoff.Delay(fails)
		} else {
			delay = r.interval
		}
		timer.Reset(delay)
	}
}

// Poll scans the root once and applies any version-set changes to the live
// registry. Load failures are skipped (counted in stats.Failed and in the
// returned joined error); everything loadable is still applied.
func (r *Reloader) Poll() (ReloadStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.svc.Metrics()
	m.ReloadPolls.Add(1)

	var stats ReloadStats
	scan, unreadable, err := r.scan()
	if err != nil {
		m.ReloadErrors.Add(1)
		r.breaker.Failure()
		return stats, fmt.Errorf("%w: %w", errScanFailed, err)
	}
	// The root scanned: the reload machinery itself works, so the breaker
	// sees success even if individual version dirs fail to load below
	// (that is the documented skip-and-keep-serving policy, not an outage).
	r.breaker.Success()

	var errs []error
	var buf []byte // every load of the poll reuses it
	bumped := make(map[string]bool)
	for key, ent := range scan {
		if k, ok := r.known[key]; ok && k.fingerprint == ent.fingerprint {
			continue
		}
		// A bundle is one file, renamed into place whole, so a publisher
		// rewriting the directory mid-load cannot get a mix registered; the
		// next poll's fingerprint picks up where it went.
		mv, err := loadVersionDir(ent.dir, ent.system, ent.version, &buf)
		if err != nil {
			stats.Failed++
			errs = append(errs, err)
			continue
		}
		replaced, err := r.svc.reg.insert(mv, true)
		if err != nil {
			stats.Failed++
			errs = append(errs, err)
			continue
		}
		r.known[key] = ent
		bumped[ent.system] = true
		if replaced {
			stats.Replaced++
		} else {
			stats.Added++
		}
	}
	// Retire versions whose directories vanished. A directory that is
	// present but momentarily unreadable (a publisher racing the poll) is
	// NOT retired — the loaded bundle keeps serving and the next poll
	// settles it.
	for key, k := range r.known {
		if _, ok := scan[key]; ok || unreadable[key] {
			continue
		}
		if err := r.svc.reg.Remove(k.system, k.version); err != nil && !errors.Is(err, ErrUnknownModel) {
			errs = append(errs, err)
			continue
		}
		delete(r.known, key)
		bumped[k.system] = true
		stats.Removed++
	}

	for system := range bumped {
		n := r.svc.cache.InvalidateSystem(system)
		stats.Invalidated += n
		m.CacheInvalidated.Add(uint64(n))
		// Shadow comparisons involving retired versions are history, not
		// live series; prune them so churn can't grow /metrics forever.
		m.PruneShadow(system, func(version int) bool {
			_, err := r.svc.reg.Get(system, version)
			return err == nil
		})
	}
	m.VersionSwaps.Add(uint64(stats.Added + stats.Replaced + stats.Removed))
	if stats.Changed() {
		m.ReloadApplied.Add(1)
		r.svc.logger.Info("registry reload applied",
			"added", stats.Added, "replaced", stats.Replaced,
			"removed", stats.Removed, "invalidated", stats.Invalidated,
			"failed", stats.Failed)
	}
	if len(errs) > 0 {
		m.ReloadErrors.Add(1)
		err := fmt.Errorf("serve: reload: %w", errors.Join(errs...))
		r.svc.logger.Warn("registry reload errors", "failed", stats.Failed, "err", err)
		return stats, err
	}
	return stats, nil
}

// scan fingerprints every published version directory under root.
// Directories that exist but cannot be fingerprinted this poll (a
// publisher racing the scan) are reported in unreadable rather than
// silently omitted, so Poll can distinguish "gone" from "mid-write".
func (r *Reloader) scan() (map[string]scanEntry, map[string]bool, error) {
	out := make(map[string]scanEntry)
	unreadable := make(map[string]bool)
	err := walkVersionDirs(r.root, func(system string, _ error) error {
		// One broken system directory must not starve every other system's
		// reloads (or retire this system's live versions): mark everything
		// known under it unreadable and move on.
		for key, k := range r.known {
			if k.system == system {
				unreadable[key] = true
			}
		}
		return nil
	}, func(system string, version int, dir string) error {
		key := system + "/" + filepath.Base(dir)
		fp, err := dirFingerprint(dir)
		if err != nil {
			unreadable[key] = true
			return nil
		}
		out[key] = scanEntry{dir: dir, system: system, version: version, fingerprint: fp}
		return nil
	})
	return out, unreadable, err
}

// dirFingerprint identifies a version directory's contents by its bundle's
// size, mtime and 4-byte checksum trailer; a legacy directory, which
// loadVersionDir refuses, by its manifest.json's. Files beside the bundle,
// such as the dot-prefixed ones writeBundleFile stages, do not count.
func dirFingerprint(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, bundleName))
	if errors.Is(err, fs.ErrNotExist) {
		f, err = os.Open(filepath.Join(dir, legacyManifestName))
	}
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", err
	}
	var trailer [4]byte
	if st.Size() >= int64(len(trailer)) {
		if _, err := f.ReadAt(trailer[:], st.Size()-int64(len(trailer))); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%s|%d|%d|%x", st.Name(), st.Size(), st.ModTime().UnixNano(), trailer), nil
}
