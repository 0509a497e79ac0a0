package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"iotaxo/internal/dataset"
	"iotaxo/internal/gbt"
	"iotaxo/internal/modelfile"
	"iotaxo/internal/nn"
	"iotaxo/internal/uq"
)

// Model registry: versioned, per-system model bundles loaded from a
// directory tree. Each bundle pairs the production GBT model with the deep
// ensemble that guards it, the feature schema it expects, the scaler the
// ensemble's networks need, and the guardrail calibration. On-disk layout:
//
//	<root>/<system>/v<version>/manifest.json
//	<root>/<system>/v<version>/model.gbt.bin
//	<root>/<system>/v<version>/member_<i>.nn.bin
//	<root>/<system>/v<version>/reference.bin
//
// Every file is a sealed internal/modelfile artifact: its own arrays as bit
// patterns under a CRC-32C, nothing derived. The manifest keeps its JSON
// name but is sealed too; it names each artifact and pins its checksum, so
// a file from another version, or one rewritten since the manifest was, is
// refused before it is decoded. Everything under <root> is treated as
// untrusted input: checksums and declared sizes are checked first, then the
// validating build inside gbt and nn, and the manifest's schema is
// cross-checked against the loaded artifacts.

// ErrUnknownModel is returned when a requested system or version is not
// registered; the HTTP layer maps it to 404.
var ErrUnknownModel = errors.New("serve: unknown model")

// Names inside a version directory, and the magics of its own artifacts.
const (
	manifestName  = "manifest.json"
	manifestMagic = "IOTAXMAN"
	gbtModelName  = "model.gbt.bin"
	referenceName = "reference.bin"
	refMagic      = "IOTAXREF"
	memberPattern = "member_%d.nn.bin"
)

// artifactRef names one file of a bundle and pins its CRC-32C, which is the
// file's own 4-byte trailer.
type artifactRef struct {
	Name  string `json:"name"`
	CRC32 uint32 `json:"crc32c"`
}

// manifest is the version directory's self-description, sealed like every
// file it names. The header holds the fields below; the body is the scaler's
// mean then its std, len(Columns) float64 each, for a bundle with an
// ensemble (whose networks need the scaler), and empty for one without.
type manifest struct {
	System   string        `json:"system"`
	Version  int           `json:"version"`
	Columns  []string      `json:"columns"`
	Model    artifactRef   `json:"model"`
	Ensemble []artifactRef `json:"ensemble,omitempty"`
	// ReferenceFile names the training-time per-feature histograms the
	// drift detectors compare live traffic against (reference.go); optional
	// — bundles without it serve normally but cannot be drift-monitored.
	ReferenceFile *artifactRef `json:"reference_file,omitempty"`
	ScalerLog     bool         `json:"scaler_log,omitempty"`
	Guard         GuardConfig  `json:"guard"`
	// TrainedOn records the training-set size (informational).
	TrainedOn int `json:"trained_on,omitempty"`

	mean, std []float64 // the body
}

// ModelVersion is one loaded bundle.
type ModelVersion struct {
	System  string
	Version int
	// Columns is the feature schema: request rows must carry exactly
	// these features, in this order.
	Columns []string
	// Model is the serving model (predicts log10 throughput from a raw
	// feature row).
	Model *gbt.Model
	// Ensemble and Scaler power the taxonomy guardrail; both nil for an
	// unguarded bundle.
	Ensemble *uq.Ensemble
	Scaler   *dataset.Scaler
	Guard    GuardConfig
	// TrainedOn is the training-set size recorded at export time.
	TrainedOn int
	// Reference is the training-time feature distribution (may be nil;
	// required for drift monitoring, see internal/drift).
	Reference []FeatureHist

	// flat caches the compiled inference engine for Model (flatErr: why it
	// has none). It is built at most once per bundle, by validate or Flat(),
	// and shared by every request the bundle serves. Guarded by flatOnce, so
	// ModelVersion must not be copied by value — all users hold pointers.
	flatOnce sync.Once
	flat     *gbt.Flat
	flatErr  error

	// cacheID is the number the duplicate cache knows this bundle by (see
	// bundleID in cache.go); 0 until first cached under.
	cacheID atomic.Uint64
}

// Flat returns the bundle's compiled inference engine, building it on
// first use. Predictions are bit-identical to Model.PredictAll (pinned by
// the gbt equivalence suite), so the serving path always walks the
// flattened representation. It panics with the compile error, which only a
// bundle that skipped validate can reach.
func (mv *ModelVersion) Flat() *gbt.Flat {
	if err := mv.compile(); err != nil {
		panic(err)
	}
	return mv.flat
}

// compile builds the flat engine once and returns Compile's refusal, if any.
func (mv *ModelVersion) compile() error {
	mv.flatOnce.Do(func() { mv.flat, mv.flatErr = mv.Model.Compile() })
	return mv.flatErr
}

// derive returns a field-wise copy of mv with a fresh compilation slot —
// the sanctioned way to build a variant bundle (ModelVersion itself must
// not be copied by value: it embeds the compile-once guard).
func (mv *ModelVersion) derive() *ModelVersion {
	return &ModelVersion{
		System:    mv.System,
		Version:   mv.Version,
		Columns:   mv.Columns,
		Model:     mv.Model,
		Ensemble:  mv.Ensemble,
		Scaler:    mv.Scaler,
		Guard:     mv.Guard,
		TrainedOn: mv.TrainedOn,
		Reference: mv.Reference,
	}
}

// validate cross-checks the bundle's internal consistency, then compiles
// its flat engine: registration and the load paths hand on a bundle whose
// first request pays no compilation.
func (mv *ModelVersion) validate() error {
	if mv.System == "" {
		return fmt.Errorf("serve: model version has no system name")
	}
	if mv.Version <= 0 {
		return fmt.Errorf("serve: model %s has non-positive version %d", mv.System, mv.Version)
	}
	if mv.Model == nil {
		return fmt.Errorf("serve: model %s v%d has no GBT model", mv.System, mv.Version)
	}
	if len(mv.Columns) != mv.Model.NumFeatures() {
		return fmt.Errorf("serve: model %s v%d: %d columns for a %d-feature model",
			mv.System, mv.Version, len(mv.Columns), mv.Model.NumFeatures())
	}
	if (mv.Ensemble == nil) != (mv.Scaler == nil) {
		return fmt.Errorf("serve: model %s v%d: ensemble and scaler must be persisted together", mv.System, mv.Version)
	}
	if mv.Ensemble != nil {
		if len(mv.Ensemble.Members) < 2 {
			return fmt.Errorf("serve: model %s v%d: ensemble has %d members, need >= 2",
				mv.System, mv.Version, len(mv.Ensemble.Members))
		}
		if err := mv.Scaler.TransformRow(make([]float64, len(mv.Columns)), make([]float64, len(mv.Columns))); err != nil {
			return fmt.Errorf("serve: model %s v%d: scaler does not match schema: %w", mv.System, mv.Version, err)
		}
	}
	if err := validateReference(mv.Reference, mv.Columns); err != nil {
		return fmt.Errorf("serve: model %s v%d: %w", mv.System, mv.Version, err)
	}
	if err := mv.compile(); err != nil {
		return fmt.Errorf("serve: model %s v%d: %w", mv.System, mv.Version, err)
	}
	return nil
}

// VersionInfo is the listing entry served at GET /v1/models.
type VersionInfo struct {
	System       string      `json:"system"`
	Version      int         `json:"version"`
	Latest       bool        `json:"latest"`
	Active       bool        `json:"active"`
	Features     int         `json:"features"`
	Trees        int         `json:"trees"`
	EnsembleSize int         `json:"ensemble_size"`
	Guard        GuardConfig `json:"guard"`
	TrainedOn    int         `json:"trained_on,omitempty"`
}

// Registry holds the loaded bundles behind a copy-on-write snapshot, so a
// live reload can swap model versions under concurrent predict traffic.
//
// Locking contract (pinned by TestRegistryGetNeverObservesPartialVersion and
// the -race CI job):
//
//   - Readers (Get, Systems, NumVersions, List, ActiveVersion,
//     ShadowTargets) load the snapshot pointer atomically and never take a
//     lock. A snapshot is immutable after publication, so a reader can
//     never observe a torn version list or a partially-validated
//     ModelVersion — it sees the registry entirely before or entirely
//     after any mutation.
//   - Writers (Add, AddOrReplace, Remove, Promote, Rollback) serialize on
//     writeMu, validate fully *before* touching shared state, build a
//     fresh snapshot by cloning (published maps and slices are never
//     mutated in place), and publish with a single atomic store.
//   - *ModelVersion bundles are immutable once registered. A reload never
//     mutates a bundle; it loads a new one and swaps the pointer.
type Registry struct {
	// writeMu serializes mutators; it is never held by readers.
	writeMu sync.Mutex
	snap    atomic.Pointer[registrySnap]
}

// registrySnap is one immutable registry state. Versions are sorted
// ascending per system. active pins the serving default for a system; a
// system with no entry auto-tracks its highest version (so a freshly
// reloaded version goes live immediately unless an operator pinned one).
// prior remembers the effective default before the last Promote, for
// Rollback.
type registrySnap struct {
	systems map[string][]*ModelVersion
	active  map[string]int
	prior   map[string]int
}

func newRegistrySnap() *registrySnap {
	return &registrySnap{
		systems: make(map[string][]*ModelVersion),
		active:  make(map[string]int),
		prior:   make(map[string]int),
	}
}

// clone deep-copies the snapshot's containers (bundles are shared — they
// are immutable).
func (s *registrySnap) clone() *registrySnap {
	ns := &registrySnap{
		systems: make(map[string][]*ModelVersion, len(s.systems)),
		active:  make(map[string]int, len(s.active)),
		prior:   make(map[string]int, len(s.prior)),
	}
	for k, vs := range s.systems {
		ns.systems[k] = append([]*ModelVersion(nil), vs...)
	}
	for k, v := range s.active {
		ns.active[k] = v
	}
	for k, v := range s.prior {
		ns.prior[k] = v
	}
	return ns
}

// activeVersion resolves a system's serving default: the pinned version if
// one is set (and still registered), else the highest registered version.
// Returns 0 for an unknown system.
func (s *registrySnap) activeVersion(system string) int {
	vs := s.systems[system]
	if len(vs) == 0 {
		return 0
	}
	if av, ok := s.active[system]; ok {
		for _, mv := range vs {
			if mv.Version == av {
				return av
			}
		}
	}
	return vs[len(vs)-1].Version
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(newRegistrySnap())
	return r
}

// Add registers a bundle after validation. Duplicate (system, version)
// pairs are rejected.
func (r *Registry) Add(mv *ModelVersion) error {
	if err := mv.validate(); err != nil {
		return err
	}
	_, err := r.insert(mv, false)
	return err
}

// AddOrReplace registers a bundle after validation, swapping out any
// existing bundle with the same (system, version). Reports whether an
// existing bundle was replaced.
func (r *Registry) AddOrReplace(mv *ModelVersion) (bool, error) {
	if err := mv.validate(); err != nil {
		return false, err
	}
	return r.insert(mv, true)
}

// insert registers a bundle that is already validated: Add and AddOrReplace
// validate first, and loadVersionDir has validated everything it returns,
// so the two loaders call insert directly.
func (r *Registry) insert(mv *ModelVersion, replace bool) (bool, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	snap := r.snap.Load().clone()
	vs := snap.systems[mv.System]
	replacedAt := -1
	for i, have := range vs {
		if have.Version == mv.Version {
			if !replace {
				return false, fmt.Errorf("serve: model %s v%d already registered", mv.System, mv.Version)
			}
			replacedAt = i
		}
	}
	if replacedAt >= 0 {
		vs[replacedAt] = mv
	} else {
		vs = append(vs, mv)
		sort.Slice(vs, func(a, b int) bool { return vs[a].Version < vs[b].Version })
	}
	snap.systems[mv.System] = vs
	r.snap.Store(snap)
	return replacedAt >= 0, nil
}

// Remove retires a registered bundle (e.g. its version directory vanished
// from disk). A pin pointing at the removed version is dropped, so the
// system falls back to auto-tracking its highest remaining version.
func (r *Registry) Remove(system string, version int) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	snap := r.snap.Load().clone()
	vs := snap.systems[system]
	at := -1
	for i, mv := range vs {
		if mv.Version == version {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("%w: system %q version %d", ErrUnknownModel, system, version)
	}
	vs = append(vs[:at:at], vs[at+1:]...)
	if len(vs) == 0 {
		delete(snap.systems, system)
	} else {
		snap.systems[system] = vs
	}
	if snap.active[system] == version {
		delete(snap.active, system)
	}
	if snap.prior[system] == version {
		delete(snap.prior, system)
	}
	r.snap.Store(snap)
	return nil
}

// Promote pins version as system's serving default (what version <= 0
// requests resolve to). The previously effective default is remembered for
// Rollback. Pinning also freezes auto-tracking: a higher version arriving
// later via reload becomes a canary (shadow-evaluated, not served) until
// it is promoted in turn.
func (r *Registry) Promote(system string, version int) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	snap := r.snap.Load().clone()
	found := false
	for _, mv := range snap.systems[system] {
		if mv.Version == version {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: system %q version %d", ErrUnknownModel, system, version)
	}
	if prev := snap.activeVersion(system); prev != version {
		snap.prior[system] = prev
	}
	snap.active[system] = version
	r.snap.Store(snap)
	return nil
}

// Rollback reverts system's serving default to the version that was
// effective before the last Promote, returning the now-active version.
// Rolling back a promote that pinned the already-active version clears
// the pin instead, restoring auto-tracking of the highest version.
func (r *Registry) Rollback(system string) (int, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	snap := r.snap.Load().clone()
	if len(snap.systems[system]) == 0 {
		return 0, fmt.Errorf("%w: system %q", ErrUnknownModel, system)
	}
	prev, ok := snap.prior[system]
	if !ok {
		if _, pinned := snap.active[system]; pinned {
			delete(snap.active, system)
			r.snap.Store(snap)
			return snap.activeVersion(system), nil
		}
		return 0, fmt.Errorf("serve: system %q has no promotion to roll back", system)
	}
	found := false
	for _, mv := range snap.systems[system] {
		if mv.Version == prev {
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("serve: rollback target %s v%d is no longer registered", system, prev)
	}
	snap.prior[system] = snap.activeVersion(system)
	snap.active[system] = prev
	r.snap.Store(snap)
	return prev, nil
}

// ActiveVersion reports the serving default for a system.
func (r *Registry) ActiveVersion(system string) (int, error) {
	v := r.snap.Load().activeVersion(system)
	if v == 0 {
		return 0, fmt.Errorf("%w: system %q", ErrUnknownModel, system)
	}
	return v, nil
}

// Pinned reports whether a promotion holds system's serving default
// (freezing auto-tracking of the highest version). A pin whose version
// was since removed does not count — the system is auto-tracking again.
func (r *Registry) Pinned(system string) bool {
	snap := r.snap.Load()
	av, ok := snap.active[system]
	if !ok {
		return false
	}
	for _, mv := range snap.systems[system] {
		if mv.Version == av {
			return true
		}
	}
	return false
}

// ShadowTargets returns the comparison bundles adjacent to a system's
// active version: prev is the next-lower registered version (the shadow,
// v(N-1)), canary the next-higher one (present only while a pin holds a
// newer reloaded version out of the serving path). Either may be nil.
func (r *Registry) ShadowTargets(system string) (prev, canary *ModelVersion) {
	snap := r.snap.Load()
	vs := snap.systems[system]
	if len(vs) == 0 {
		return nil, nil
	}
	av := snap.activeVersion(system)
	for i, mv := range vs {
		if mv.Version == av {
			if i > 0 {
				prev = vs[i-1]
			}
			if i+1 < len(vs) {
				canary = vs[i+1]
			}
			return prev, canary
		}
	}
	return nil, nil
}

// Get returns the bundle for a system. version <= 0 selects the serving
// default (the promoted version, or the highest registered one).
func (r *Registry) Get(system string, version int) (*ModelVersion, error) {
	snap := r.snap.Load()
	vs := snap.systems[system]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: system %q", ErrUnknownModel, system)
	}
	if version <= 0 {
		version = snap.activeVersion(system)
	}
	for _, mv := range vs {
		if mv.Version == version {
			return mv, nil
		}
	}
	return nil, fmt.Errorf("%w: system %q version %d", ErrUnknownModel, system, version)
}

// Systems returns the registered system names, sorted.
func (r *Registry) Systems() []string {
	return r.snap.Load().systemNames()
}

// NumVersions returns the total bundle count.
func (r *Registry) NumVersions() int {
	n := 0
	for _, vs := range r.snap.Load().systems {
		n += len(vs)
	}
	return n
}

// List describes every bundle, sorted by (system, version).
func (r *Registry) List() []VersionInfo {
	snap := r.snap.Load()
	var out []VersionInfo
	for _, system := range snap.systemNames() {
		vs := snap.systems[system]
		av := snap.activeVersion(system)
		for i, mv := range vs {
			info := VersionInfo{
				System:    mv.System,
				Version:   mv.Version,
				Latest:    i == len(vs)-1,
				Active:    mv.Version == av,
				Features:  len(mv.Columns),
				Trees:     mv.Model.NumTrees(),
				Guard:     mv.Guard,
				TrainedOn: mv.TrainedOn,
			}
			if mv.Ensemble != nil {
				info.EnsembleSize = len(mv.Ensemble.Members)
			}
			out = append(out, info)
		}
	}
	return out
}

func (s *registrySnap) systemNames() []string {
	out := make([]string, 0, len(s.systems))
	for name := range s.systems {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// versionDirPattern matches v<N> directories.
var versionDirPattern = regexp.MustCompile(`^v([0-9]+)$`)

// walkVersionDirs calls visit for every published version directory under
// a registry root — <root>/<system>/v<N> holding a manifest — in name
// order; directories without a manifest are skipped silently, so a root can
// hold unrelated files. A system directory that cannot be listed goes to
// unlisted instead. The walk stops at the first error either returns.
func walkVersionDirs(root string, unlisted func(system string, err error) error, visit func(system string, version int, dir string) error) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: reading registry root %s: %w", root, err)
	}
	for _, sys := range entries {
		if !sys.IsDir() {
			continue
		}
		vdirs, err := os.ReadDir(filepath.Join(root, sys.Name()))
		if err != nil {
			if err := unlisted(sys.Name(), err); err != nil {
				return err
			}
			continue
		}
		for _, vd := range vdirs {
			sub := versionDirPattern.FindStringSubmatch(vd.Name())
			if !vd.IsDir() || sub == nil {
				continue
			}
			dir := filepath.Join(root, sys.Name(), vd.Name())
			if _, err := os.Stat(filepath.Join(dir, manifestName)); errors.Is(err, os.ErrNotExist) {
				continue
			}
			version, _ := strconv.Atoi(sub[1])
			if err := visit(sys.Name(), version, dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadRegistry loads every version directory walkVersionDirs finds under
// root. A system directory it cannot list or a manifest that fails to load
// is an error — a serving fleet must not come up with a partial model set.
func LoadRegistry(root string) (*Registry, error) {
	reg := NewRegistry()
	err := walkVersionDirs(root, func(system string, err error) error {
		return fmt.Errorf("serve: reading %s: %w", filepath.Join(root, system), err)
	}, func(system string, _ int, dir string) error {
		mv, err := loadVersionDir(dir, system)
		if err != nil {
			return err
		}
		_, err = reg.insert(mv, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	if reg.NumVersions() == 0 {
		return nil, fmt.Errorf("serve: no model bundles under %s", root)
	}
	return reg, nil
}

// loadVersionDir loads one bundle directory.
func loadVersionDir(dir, wantSystem string) (*ModelVersion, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.System != wantSystem {
		return nil, fmt.Errorf("serve: manifest in %s names system %q, directory says %q", dir, m.System, wantSystem)
	}
	wantVersion := 0
	if sub := versionDirPattern.FindStringSubmatch(filepath.Base(dir)); sub != nil {
		wantVersion, _ = strconv.Atoi(sub[1])
	}
	if wantVersion != 0 && m.Version != wantVersion {
		return nil, fmt.Errorf("serve: manifest in %s claims version %d", dir, m.Version)
	}
	mv := &ModelVersion{
		System:    m.System,
		Version:   m.Version,
		Columns:   m.Columns,
		Guard:     m.Guard,
		TrainedOn: m.TrainedOn,
	}
	// The guard's artifacts decode on a second goroutine while this one
	// decodes the model and compiles its flat engine (validate reports a
	// compile refusal in its place). Errors keep the serial order: the
	// model's first, then the reference, each member and the scaler.
	guardErr := make(chan error, 1)
	go func() { guardErr <- loadGuardArtifacts(dir, m, mv) }()
	if mv.Model, err = readArtifact(dir, m.Model, gbt.ReadBinary); err == nil {
		_ = mv.compile()
	}
	if gerr := <-guardErr; err == nil {
		err = gerr
	}
	if err != nil {
		return nil, err
	}
	// Validate here, not just at registration: loadVersionDir is the trust
	// boundary for on-disk input (including live-reloaded directories), so
	// it must never hand back a bundle the registry would refuse.
	if err := mv.validate(); err != nil {
		return nil, fmt.Errorf("serve: manifest in %s: %w", dir, err)
	}
	return mv, nil
}

// loadGuardArtifacts decodes what m names besides the model into mv: the
// reference, the ensemble members and the scaler, in that order.
func loadGuardArtifacts(dir string, m manifest, mv *ModelVersion) (err error) {
	if m.ReferenceFile != nil {
		if mv.Reference, err = readArtifact(dir, *m.ReferenceFile, readReference); err != nil {
			return err
		}
	}
	if len(m.Ensemble) == 0 {
		return nil
	}
	ens := &uq.Ensemble{}
	for _, ref := range m.Ensemble {
		member, err := readArtifact(dir, ref, nn.ReadBinary)
		if err != nil {
			return err
		}
		ens.Members = append(ens.Members, member)
	}
	mv.Ensemble = ens
	if mv.Scaler, err = dataset.NewScaler(m.ScalerLog, m.mean, m.std); err != nil {
		return fmt.Errorf("serve: manifest in %s: %w", dir, err)
	}
	return nil
}

// readManifest opens dir's manifest: the checksum first, then a canonical
// header, then a body holding exactly the scaler the header implies.
func readManifest(dir string) (m manifest, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, fmt.Errorf("serve: reading manifest in %s: %w", dir, err)
	}
	body, err := modelfile.Open(manifestMagic, raw, &m)
	if err != nil && !bytes.HasPrefix(raw, []byte(manifestMagic)) {
		err = fmt.Errorf("%w: the bundle predates the sealed bundle format; re-save it with SaveVersion (ioserve -bootstrap writes a fresh registry)", err)
	}
	if err != nil {
		return m, fmt.Errorf("serve: manifest in %s: %w", dir, err)
	}
	n := 0
	if len(m.Ensemble) > 0 {
		n = len(m.Columns)
	}
	if len(body) != 16*n || (m.ScalerLog && n == 0) {
		return m, fmt.Errorf("serve: manifest in %s: %d body bytes and scaler_log %v for %d ensemble members over %d columns", dir, len(body), m.ScalerLog, len(m.Ensemble), len(m.Columns))
	}
	m.mean, m.std = make([]float64, n), make([]float64, n)
	modelfile.Float64s(m.std, modelfile.Float64s(m.mean, body))
	return m, nil
}

// readArtifact reads the bundle file ref names whole — its size is known, so
// in one allocation — refuses it unless its checksum trailer is the one the
// manifest pins, and decodes it. Manifests are untrusted, so the name is
// confined to the version directory: "../../etc/x" must not escape it.
func readArtifact[M any](dir string, ref artifactRef, decode func([]byte) (M, error)) (m M, err error) {
	if ref.Name == "" || !filepath.IsLocal(ref.Name) {
		return m, fmt.Errorf("serve: manifest in %s references non-local artifact path %q", dir, ref.Name)
	}
	path := filepath.Join(dir, ref.Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("serve: reading artifact: %w", err)
	}
	if len(raw) < 4 || binary.LittleEndian.Uint32(raw[len(raw)-4:]) != ref.CRC32 {
		return m, fmt.Errorf("serve: %s is not the artifact the manifest pins (crc32c %08x)", path, ref.CRC32)
	}
	if m, err = decode(raw); err != nil {
		return m, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return m, nil
}

// SaveVersion writes a bundle into the registry layout under root, creating
// <root>/<system>/v<version>/ and its manifest and artifacts. The manifest
// is written last: LoadRegistry and the reloader skip directories without a
// manifest, so its appearance is what publishes the version — a concurrent
// reload poll never loads a half-written directory. A version rewritten in
// place is never loaded half old, half new either: until the new manifest
// lands, the old one's checksum pins refuse the new artifacts.
func SaveVersion(root string, mv *ModelVersion) error {
	if err := mv.validate(); err != nil {
		return err
	}
	dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating %s: %w", dir, err)
	}
	m := manifest{
		System:    mv.System,
		Version:   mv.Version,
		Columns:   mv.Columns,
		Guard:     mv.Guard,
		TrainedOn: mv.TrainedOn,
	}
	var err error
	if m.Model, err = writeArtifact(dir, gbtModelName, mv.Model.WriteBinary); err != nil {
		return err
	}
	if mv.Ensemble != nil {
		for i, member := range mv.Ensemble.Members {
			ref, err := writeArtifact(dir, fmt.Sprintf(memberPattern, i), member.WriteBinary)
			if err != nil {
				return err
			}
			m.Ensemble = append(m.Ensemble, ref)
		}
		m.ScalerLog, m.mean, m.std = mv.Scaler.Log, mv.Scaler.Mean, mv.Scaler.Std
	}
	if len(mv.Reference) > 0 {
		ref, err := writeArtifact(dir, referenceName, func(w io.Writer) error { return writeReference(w, mv.Reference) })
		if err != nil {
			return err
		}
		m.ReferenceFile = &ref
	}
	return writeManifest(dir, m)
}

// writeArtifact writes one sealed bundle file and returns the manifest's
// reference to it, pinned to the checksum it was sealed with.
func writeArtifact(dir, name string, write func(io.Writer) error) (artifactRef, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return artifactRef{}, fmt.Errorf("serve: encoding %s: %w", name, err)
	}
	b := buf.Bytes()
	return artifactRef{Name: name, CRC32: binary.LittleEndian.Uint32(b[len(b)-4:])}, writeBundleFile(dir, name, b)
}

// writeManifest seals m and publishes it as dir's manifest, the last file of
// a version.
func writeManifest(dir string, m manifest) error {
	b, err := modelfile.Begin(manifestMagic, m, 16*len(m.mean))
	if err != nil {
		return fmt.Errorf("serve: encoding manifest: %w", err)
	}
	b = modelfile.AppendFloat64s(modelfile.AppendFloat64s(b, m.mean), m.std)
	return writeBundleFile(dir, manifestName, modelfile.Seal(b))
}

// writeBundleFile is how every file of a bundle reaches its directory: staged
// under a dot-prefixed name (no loader opens one, dirFingerprint skips them)
// and renamed, so a poll racing a publisher reads it whole or not at all.
func writeBundleFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return fmt.Errorf("serve: staging %s in %s: %w", name, dir, err)
	}
	_, err = tmp.Write(data)
	err = errors.Join(err, tmp.Chmod(0o644), tmp.Close())
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: err is the one to report
		return fmt.Errorf("serve: writing %s in %s: %w", name, dir, err)
	}
	return nil
}
