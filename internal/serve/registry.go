package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// ensemble's networks need, and the guardrail calibration. A version is one
// file, <root>/<system>/v<version>/bundle.bin: a sealed internal/modelfile
// container whose header is a manifest's fields and whose body is the column
// names (a uint32 count, then each a uint32 length and its bytes), the
// scaler's mean then std (with an ensemble only), and the sections: the
// model, the reference histograms (optional) and each ensemble member, each
// exactly the artifact its package writes. The container's checksum covers
// every byte and is checked before any is believed; SaveVersion publishes
// the file with one rename, so a load reads one whole bundle, old or new.

// ErrUnknownModel is returned when a requested system or version is not
// registered; the HTTP layer maps it to 404.
var ErrUnknownModel = errors.New("serve: unknown model")

const (
	bundleName  = "bundle.bin"
	bundleMagic = "IOTAXBUN"
	refMagic    = "IOTAXREF"
	// legacyManifestName published a version that was six files.
	legacyManifestName = "manifest.json"
)

// manifest is a bundle's container header together with the body it
// describes.
type manifest struct {
	System    string      `json:"system"`
	Version   int         `json:"version"`
	ScalerLog bool        `json:"scaler_log,omitempty"`
	Guard     GuardConfig `json:"guard"`
	// TrainedOn records the training-set size (informational).
	TrainedOn int `json:"trained_on,omitempty"`
	// The sections' lengths. A bundle without a reference section cannot be
	// drift-monitored; one without members has no scaler.
	ModelBytes     int   `json:"model_bytes"`
	ReferenceBytes int   `json:"reference_bytes,omitempty"`
	MemberBytes    []int `json:"member_bytes,omitempty"`

	// The body. The sections alias the bytes the bundle was opened from.
	columns          []string
	mean, std        []float64
	model, reference []byte
	members          [][]byte
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

	// cacheID is the number the duplicate cache knows this bundle by (see
	// bundleID in cache.go); 0 until first cached under. It is atomic, so
	// ModelVersion must not be copied by value — all users hold pointers.
	cacheID atomic.Uint64
}

// Flat returns the bundle's inference engine: the model's own flat layout,
// which is what its artifact stores, so there is nothing to compile.
// Predictions are bit-identical to Model.PredictAll (pinned by the gbt
// equivalence suite).
func (mv *ModelVersion) Flat() *gbt.Flat { return mv.Model.Compile() }

// validate cross-checks the bundle's internal consistency.
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
//   - Writers (Add and the loaders through insert, Remove, Promote,
//     Rollback) serialize on writeMu, validate fully *before* touching
//     shared state, build a fresh snapshot by cloning (published maps and
//     slices are never mutated in place), and publish with a single atomic
//     store.
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

// insert registers a bundle that is already validated: Add validates
// first, and loadVersionDir has validated everything it returns, so the two
// loaders call insert directly. With replace set, a bundle of the same
// (system, version) is swapped out (Reloader.Poll's path); it reports
// whether one was.
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
// a registry root — <root>/<system>/v<N> holding a bundle.bin, or a legacy
// manifest.json that loadVersionDir refuses — in name order, skipping
// anything else. A system directory that cannot be listed goes to unlisted
// instead. The walk stops at the first error either returns.
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
			if !exists(filepath.Join(dir, bundleName)) && !exists(filepath.Join(dir, legacyManifestName)) {
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

// exists is false only for a path that is certainly not there: one that
// cannot be stat'ed for another reason is left for its reader to report.
func exists(path string) bool {
	_, err := os.Stat(path)
	return !errors.Is(err, fs.ErrNotExist)
}

// LoadRegistry loads every version directory walkVersionDirs finds under
// root. A system directory it cannot list or a bundle that fails to load is
// an error — a serving fleet must not come up with a partial model set.
func LoadRegistry(root string) (*Registry, error) {
	reg := NewRegistry()
	var buf []byte // every version's load reuses it
	err := walkVersionDirs(root, func(system string, err error) error {
		return fmt.Errorf("serve: reading %s: %w", filepath.Join(root, system), err)
	}, func(system string, version int, dir string) error {
		mv, err := loadVersionDir(dir, system, version, &buf)
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

// resave is the advice a bundle written in a format this build no longer
// reads is refused with.
const resave = "the bundle predates this build's bundle format; re-save it with SaveVersion (ioserve -bootstrap writes a fresh registry)"

// loadVersionDir loads the bundle in dir, which is system's version, read
// whole into *buf. Every decoder copies what it keeps, so the bundle holds
// no slice of the buffer, and the next load may reuse it.
func loadVersionDir(dir, system string, version int, buf *[]byte) (*ModelVersion, error) {
	path := filepath.Join(dir, bundleName)
	raw, err := readFileInto(path, buf)
	if errors.Is(err, fs.ErrNotExist) && exists(filepath.Join(dir, legacyManifestName)) {
		return nil, fmt.Errorf("serve: %s holds a %s and no %s: %s", dir, legacyManifestName, bundleName, resave)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading bundle: %w", err)
	}
	mv, err := decodeBundle(raw, system, version)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return mv, nil
}

// decodeBundle opens a bundle read from the directory of system's version.
// The model decodes on the calling goroutine while the reference, members
// and scaler decode on a second one, yet errors keep the serial order:
// container, model, reference, each member, scaler. What it returns has
// passed validate: the loader is the trust boundary for on-disk input, so it
// never hands back a bundle the registry would refuse.
func decodeBundle(raw []byte, system string, version int) (*ModelVersion, error) {
	m, err := openBundle(raw)
	if err != nil {
		return nil, err
	}
	if m.System != system || m.Version != version {
		return nil, fmt.Errorf("bundle claims %q v%d in the directory of %q v%d", m.System, m.Version, system, version)
	}
	mv := &ModelVersion{
		System:    m.System,
		Version:   m.Version,
		Columns:   m.columns,
		Guard:     m.Guard,
		TrainedOn: m.TrainedOn,
	}
	guardErr := make(chan error, 1)
	go func() { guardErr <- decodeGuard(&m, mv) }()
	if mv.Model, err = gbt.ReadBinary(m.model); err != nil {
		err = fmt.Errorf("model section: %w", err)
	}
	if err = cmp.Or(err, <-guardErr); err == nil {
		err = mv.validate()
	}
	if err != nil {
		return nil, err
	}
	return mv, nil
}

// decodeGuard decodes m's sections besides the model into mv: the
// reference, the ensemble members and the scaler, in that order.
func decodeGuard(m *manifest, mv *ModelVersion) (err error) {
	if m.reference != nil {
		if mv.Reference, err = readReference(m.reference); err != nil {
			return fmt.Errorf("reference section: %w", err)
		}
	}
	if len(m.members) == 0 {
		return nil
	}
	ens := &uq.Ensemble{Members: make([]*nn.Model, len(m.members))}
	for i, section := range m.members {
		if ens.Members[i], err = nn.ReadBinary(section); err != nil {
			return fmt.Errorf("member %d section: %w", i, err)
		}
	}
	mv.Ensemble = ens
	mv.Scaler, err = dataset.NewScaler(m.ScalerLog, m.mean, m.std)
	return err
}

// openBundle checks raw's container — its checksum first, then a canonical
// header — and splits the body: every length it declares must fit in the
// bytes still unread, and together they must account for all of them.
func openBundle(raw []byte) (m manifest, err error) {
	body, err := modelfile.Open(bundleMagic, raw, &m)
	// take cuts the next n bytes off body, and nothing once err is set.
	take := func(what string, n int) []byte {
		if err == nil && (n < 0 || n > len(body)) {
			err = fmt.Errorf("%s of %d bytes with %d left", what, n, len(body))
		}
		if err != nil {
			return nil
		}
		b := body[:n:n]
		body = body[n:]
		return b
	}
	u32 := func(what string) int {
		if b := take(what, 4); b != nil {
			return int(binary.LittleEndian.Uint32(b))
		}
		return 0
	}
	// Each column name is at least its 4-byte length.
	if n := u32("column count"); err == nil && n > len(body)/4 {
		err = fmt.Errorf("%d columns with %d bytes left", n, len(body))
	} else {
		m.columns = make([]string, n)
	}
	for i := range m.columns {
		m.columns[i] = string(take("column name", u32("column name length")))
	}
	if len(m.MemberBytes) > 0 {
		m.mean, m.std = make([]float64, len(m.columns)), make([]float64, len(m.columns))
		if b := take("scaler", 16*len(m.columns)); b != nil {
			modelfile.Float64s(m.std, modelfile.Float64s(m.mean, b))
		}
	} else if m.ScalerLog && err == nil {
		err = errors.New("scaler_log set for a bundle without an ensemble")
	}
	m.model = take("model section", m.ModelBytes)
	if m.ReferenceBytes != 0 {
		m.reference = take("reference section", m.ReferenceBytes)
	}
	for i := 0; i < len(m.MemberBytes) && err == nil; i++ {
		m.members = append(m.members, take(fmt.Sprintf("member %d section", i), m.MemberBytes[i]))
	}
	if err == nil && len(body) != 0 {
		err = fmt.Errorf("%d body bytes after the last section", len(body))
	}
	return m, err
}

// sealBundle encodes m's body under a header whose lengths it sets from the
// sections.
func sealBundle(m manifest) ([]byte, error) {
	m.ModelBytes, m.ReferenceBytes, m.MemberBytes = len(m.model), len(m.reference), nil
	for _, section := range m.members {
		m.MemberBytes = append(m.MemberBytes, len(section))
	}
	b, err := modelfile.Begin(bundleMagic, m, 0)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.columns)))
	for _, c := range m.columns {
		b = append(binary.LittleEndian.AppendUint32(b, uint32(len(c))), c...)
	}
	b = modelfile.AppendFloat64s(modelfile.AppendFloat64s(b, m.mean), m.std)
	for _, section := range append([][]byte{m.model, m.reference}, m.members...) {
		b = append(b, section...)
	}
	return modelfile.Seal(b), nil
}

// readFileInto reads the file at path whole into *buf, grown to the file's
// size when short, and returns those bytes.
func readFileInto(path string, buf *[]byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err == nil {
		*buf = slices.Grow((*buf)[:0], int(st.Size()))[:st.Size()]
		_, err = io.ReadFull(f, *buf)
	}
	return *buf, err
}

// SaveVersion writes a bundle into the registry layout under root as
// <root>/<system>/v<version>/bundle.bin.
func SaveVersion(root string, mv *ModelVersion) error {
	if err := mv.validate(); err != nil {
		return err
	}
	m := manifest{
		System:    mv.System,
		Version:   mv.Version,
		Guard:     mv.Guard,
		TrainedOn: mv.TrainedOn,
		columns:   mv.Columns,
	}
	var err error
	section := func(write func(io.Writer) error) []byte {
		var b bytes.Buffer
		err = cmp.Or(err, write(&b))
		return b.Bytes()
	}
	m.model = section(mv.Model.WriteBinary)
	if len(mv.Reference) > 0 {
		m.reference = section(func(w io.Writer) error { return writeReference(w, mv.Reference) })
	}
	if mv.Ensemble != nil {
		for _, member := range mv.Ensemble.Members {
			m.members = append(m.members, section(member.WriteBinary))
		}
		m.ScalerLog, m.mean, m.std = mv.Scaler.Log, mv.Scaler.Mean, mv.Scaler.Std
	}
	var b []byte
	if err == nil {
		b, err = sealBundle(m)
	}
	if err != nil {
		return fmt.Errorf("serve: encoding bundle: %w", err)
	}
	dir := filepath.Join(root, mv.System, fmt.Sprintf("v%d", mv.Version))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: creating %s: %w", dir, err)
	}
	return writeBundleFile(dir, b)
}

// writeBundleFile publishes data as dir's bundle.bin: staged under a
// dot-prefixed name that no loader opens and renamed, so a poll racing a
// publisher reads the old bundle or the new one whole.
func writeBundleFile(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+bundleName+"-*")
	if err != nil {
		return fmt.Errorf("serve: staging %s in %s: %w", bundleName, dir, err)
	}
	_, err = tmp.Write(data)
	err = errors.Join(err, tmp.Chmod(0o644), tmp.Close())
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, bundleName))
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: err is the one to report
		return fmt.Errorf("serve: writing %s in %s: %w", bundleName, dir, err)
	}
	return nil
}
