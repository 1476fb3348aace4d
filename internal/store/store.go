// Package store is the crash-safe persistence layer under the partition
// serving stack: speed models and the plan cache's plans survive process
// restarts, so a rebooted server answers its first requests from a warm
// cache instead of recomputing every plan.
//
// Durability follows the classic snapshot + write-ahead-log pattern:
//
//   - a versioned binary snapshot holds the full state (models and plans)
//     in CRC-checked frames, written to a temp file and
//     renamed into place, so a crash mid-snapshot never destroys the
//     previous one;
//   - an append-only WAL records what happens between snapshots — model
//     upserts, admitted plan insertions (the cache's insert tap), and
//     drift invalidations — each record framed and CRC-checked, written
//     with a single write(2) call so a SIGKILL leaves at most one partial
//     frame at the tail;
//   - replay-on-open loads the snapshot, applies the WAL on top, and
//     validates everything: models must reproduce their recorded
//     speed.Fingerprint, plans must reference a known model and sum
//     exactly to their n. Anything that fails is quarantined (counted and
//     dropped, corrupt files renamed aside) — a wrong plan is never
//     served;
//   - compaction folds the WAL into a fresh snapshot whenever it outgrows
//     the larger of Options.CompactAt and the last snapshot, on a
//     background goroutine that holds the store lock only to capture the
//     state and to switch files (compact.go), and Close writes a final
//     snapshot so a graceful shutdown restarts with an empty log.
//
// The store is single-process, single-writer; all methods are safe for
// concurrent use within that process.
package store

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// File names inside the store directory.
const (
	snapshotFile = "snapshot.bin"
	snapshotTmp  = "snapshot.tmp"
	walFile      = "wal.log"
)

// 8-byte magics of the two files: format v3, with composed per-processor
// model fingerprints, the recModelDelta record and tenant-qualified labels.
// It is the only format the store reads or writes.
const (
	snapMagic = "HPSNAP3\n"
	walMagic  = "HPWAL03\n"
)

// Errors RefreshProcessor returns for a request it cannot apply.
var (
	// ErrUnknownLabel reports a refresh of a label no stored model has.
	ErrUnknownLabel = errors.New("store: unknown model label")
	// ErrProcOutOfRange reports a refresh of a processor index the model
	// does not have.
	ErrProcOutOfRange = errors.New("store: processor index out of range")
)

// ErrUnsupportedFormat reports a snapshot or WAL written in another version
// of the store format. Open refuses it and leaves the file as it is; only
// foreign or damaged bytes are quarantined.
var ErrUnsupportedFormat = errors.New("store: unsupported store format")

// checkMagic reports whether b opens with magic. A magic that differs only
// in its version (the same letters once trailing digits and the newline are
// trimmed, like "HPSNAP2\n" for "HPSNAP3\n") is ErrUnsupportedFormat; any
// other bytes are ErrCorruptFrame.
func checkMagic(b []byte, magic string) error {
	if len(b) >= len(magic) {
		got := string(b[:len(magic)])
		if got == magic {
			return nil
		}
		if strings.TrimRight(got, "0123456789\n") == strings.TrimRight(magic, "0123456789\n") {
			return fmt.Errorf("%w: magic %q", ErrUnsupportedFormat, got)
		}
	}
	return fmt.Errorf("%w: bad magic", ErrCorruptFrame)
}

// Options tunes a Store.
type Options struct {
	// Dir is the store directory (created if missing). Required.
	Dir string
	// CompactAt is the floor of the compaction trigger: the WAL is folded
	// into a fresh snapshot when it exceeds the larger of CompactAt and the
	// last snapshot's size (default 4 MiB; <0 disables automatic
	// compaction).
	CompactAt int64
	// SyncEvery fsyncs the WAL every N appended records (default 64;
	// 1 syncs on every append). Appends always reach the kernel
	// immediately — a process crash loses nothing, only a machine crash
	// can lose the records appended since the last sync.
	SyncEvery int
	// MaxPlans bounds the plan mirror (default 16384); the oldest plans
	// are dropped first, mirroring LRU pressure in the cache.
	MaxPlans int
}

func (o Options) withDefaults() Options {
	if o.CompactAt == 0 {
		o.CompactAt = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.MaxPlans <= 0 {
		o.MaxPlans = 16384
	}
	return o
}

// Stats is a snapshot of the store counters.
type Stats struct {
	Models int `json:"models"`
	Plans  int `json:"plans"`

	WALRecords  uint64 `json:"walRecords"`  // records appended this run
	WALBytes    int64  `json:"walBytes"`    // current WAL size past the header
	WALFrames   int64  `json:"walFrames"`   // frames in the WAL this generation
	Compactions uint64 `json:"compactions"` // snapshots written this run

	// Write amplification: WALAppendedBytes counts the frame bytes appended
	// to the WAL this run, CompactedBytes the snapshot bytes automatic
	// compactions wrote, so their ratio is the bytes rewritten per byte
	// appended. CompactionsAbandoned counts background compactions whose
	// image was discarded at the switch (the store was pinned, sealed or
	// replaced while it encoded).
	WALAppendedBytes     int64  `json:"walAppendedBytes"`
	CompactedBytes       int64  `json:"compactedBytes"`
	CompactionsAbandoned uint64 `json:"compactionsAbandoned"`

	Epoch uint64 `json:"epoch"` // replication fencing epoch
	Gen   uint64 `json:"gen"`   // compaction generation (WAL stream identity)

	// Refreshes counts one-processor delta refreshes applied this run —
	// live RefreshProcessor calls plus replayed or streamed delta records.
	Refreshes uint64 `json:"refreshes"`

	ReplayedModels int `json:"replayedModels"` // records applied on Open
	ReplayedPlans  int `json:"replayedPlans"`

	Sealed bool `json:"sealed"` // mutators fenced off for a planned handover

	QuarantinedRecords  int   `json:"quarantinedRecords"`  // records dropped by validation
	QuarantinedTail     int64 `json:"quarantinedTail"`     // WAL bytes cut off a corrupt tail
	SnapshotQuarantined bool  `json:"snapshotQuarantined"` // snapshot failed its checks and was set aside
	LoadedFromSnapshot  bool  `json:"loadedFromSnapshot"`

	// SyncEvery is the effective fsync cadence (records per fsync).
	SyncEvery int `json:"syncEvery"`

	// Group-commit counters: GroupCommits is the number of AppendPlanBatch
	// calls (each one lock acquisition and at most one kernel write),
	// GroupedRecords the plan records they carried, and GroupCommitHist a
	// batch-size histogram with power-of-two buckets
	// [1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+].
	GroupCommits    uint64    `json:"groupCommits"`
	GroupedRecords  uint64    `json:"groupedRecords"`
	GroupCommitHist [8]uint64 `json:"groupCommitHist"`
}

// ModelInfo describes one stored model.
type ModelInfo struct {
	Fingerprint uint64
	Label       string
	Processors  int
}

// catalog is the store's model table: every stored model by fingerprint,
// with its canonical label and every name that resolves to it, and every
// name by itself. It is immutable once published: a write edits a draft
// and publishes it whole (see editLocked), so readers resolve models with
// one atomic load and no lock, and never see a write half done. Both
// tables are split into shards and a draft copies only the shards it
// writes, so a write costs the same with a thousand models stored as with
// one. The names are the canonical tenant-qualified labels plus, for
// default-tenant models, the bare model name, so an untenanted request
// resolves without canonicalizing; bare names have no '/', so they cannot
// collide with a canonical "tenant/model" key.
type catalog struct {
	models                     [catalogShards]map[uint64]catalogEntry
	labels                     [catalogShards]map[string]*speed.Model
	copiedModels, copiedLabels [catalogShards]bool // shards a draft owns
}

const catalogShards = 256

type catalogEntry struct {
	label string
	model *speed.Model
	names []string
}

// nameShard is FNV-1a over the name's bytes.
func nameShard[T string | []byte](name T) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % catalogShards)
}

func (c *catalog) entry(fp uint64) (catalogEntry, bool) {
	e, ok := c.models[fp%catalogShards][fp]
	return e, ok
}

func (c *catalog) lookup(name string) (*speed.Model, bool) {
	m, ok := c.labels[nameShard(name)][name]
	return m, ok
}

func (c *catalog) count() (n int) {
	for _, shard := range c.models {
		n += len(shard)
	}
	return n
}

// modelShard and labelShard return the draft's shard for a key, copied on
// the draft's first write to it.
func (c *catalog) modelShard(fp uint64) map[uint64]catalogEntry {
	return own(&c.models, &c.copiedModels, int(fp%catalogShards))
}

func (c *catalog) labelShard(name string) map[string]*speed.Model {
	return own(&c.labels, &c.copiedLabels, nameShard(name))
}

func own[K comparable, V any](shards *[catalogShards]map[K]V, copied *[catalogShards]bool, i int) map[K]V {
	if !copied[i] {
		m := make(map[K]V, len(shards[i])+1)
		maps.Copy(m, shards[i])
		shards[i], copied[i] = m, true
	}
	return shards[i]
}

// put installs m under label, and a default-tenant label's model under
// its bare name too (label's previous model, if another, must already be
// dropped).
func (c *catalog) put(label string, m *speed.Model) {
	e, _ := c.entry(m.Fingerprint())
	e.label, e.model = label, m
	names := []string{label}
	if tenant, name, ok := fabric.SplitLabel(label); ok && tenant == fabric.DefaultTenant && !strings.Contains(name, "/") {
		names = append(names, name)
	}
	for _, name := range names {
		c.labelShard(name)[name] = m
	}
	e.names = addNames(e.names, names)
	c.modelShard(m.Fingerprint())[m.Fingerprint()] = e
}

// drop removes a model and every name that resolves to it.
func (c *catalog) drop(fp uint64) {
	e, _ := c.entry(fp)
	for _, name := range e.names {
		delete(c.labelShard(name), name)
	}
	delete(c.modelShard(fp), fp)
}

// move re-keys the model at oldFP to refreshed, and every name that
// resolved to it follows (merging with the names of a model already
// stored under the new fingerprint).
func (c *catalog) move(oldFP uint64, refreshed *speed.Model) {
	e, _ := c.entry(oldFP)
	delete(c.modelShard(oldFP), oldFP)
	if held, ok := c.entry(refreshed.Fingerprint()); ok {
		e.names = addNames(e.names, held.names)
	}
	e.model = refreshed
	for _, name := range e.names {
		c.labelShard(name)[name] = refreshed
	}
	c.modelShard(refreshed.Fingerprint())[refreshed.Fingerprint()] = e
}

// addNames appends each name of add that names lacks, never writing the
// backing array names may share with a published entry.
func addNames(names, add []string) []string {
	names = slices.Clip(names)
	for _, name := range add {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

type planKey struct {
	model uint64
	n     int64
	algo  core.Algorithm
	opts  uint64
}

// Store is the durable model/plan store. Construct with Open; Close writes
// the final snapshot.
type Store struct {
	// compactMu serializes compactions and handoff installs; it is taken
	// before mu, never while mu is held (see compact.go).
	compactMu sync.Mutex

	mu   sync.Mutex
	opts Options

	// cat is the published model catalog. Readers load it without mu;
	// writers hold mu, edit draft and publish it (see editLocked). draft is
	// nil whenever mu is free.
	cat   atomic.Pointer[catalog]
	draft *catalog

	plans     map[planKey]plancache.PlanRecord
	planOrder []planKey

	wal       *os.File
	walBytes  int64
	unsynced  int
	walTotal  uint64
	compacted uint64

	// Compaction state (see compact.go): lastSnap is the size of the
	// snapshot the WAL is layered on; kick signals the compactor goroutine
	// (started on the first signal), compactQueued is set while a signalled
	// compaction is pending or running, quit stops the goroutine and exited
	// closes when it has, stopped keeps it from starting again after Close;
	// failHook, set only by tests, stops a compaction after a step.
	lastSnap           int64
	walAppended        int64
	compactedBytes     int64
	abandoned          uint64
	kick, quit, exited chan struct{}
	compactQueued      bool
	stopped            bool
	failHook           func(compactStep) error

	// Group-commit counters (see Stats).
	groupCommits uint64
	groupedRecs  uint64
	groupHist    [8]uint64

	// Replication state (see replication.go). epoch fences a promoted
	// replica against a zombie primary; gen identifies the WAL stream a
	// byte offset is valid in (each compaction starts a new one);
	// walFrames counts the frames in the current generation; tornBytes
	// are ingested stream bytes past the last complete frame, kept on
	// disk so a promotion seals them off exactly like boot-time replay;
	// pins defers automatic compaction during snapshot handoffs; notify
	// is closed and replaced on every append (and compaction) so WAL
	// streamers can long-poll.
	epoch     uint64
	gen       uint64
	walFrames int64
	tornBytes int64
	pins      int
	notify    chan struct{}

	replayedModels, replayedPlans int
	refreshes                     uint64
	quarantined                   int
	quarantinedTail               int64
	snapQuarantined               bool
	loadedSnapshot                bool

	// sealed freezes the committed log end for a planned handover: mutators
	// refuse with ErrSealed so the position returned by Seal stays the final
	// word of this primacy. Cleared by Unseal, by Promote, and by
	// ApplyHandoff (the demoted store re-enters life as a follower).
	sealed bool

	closed bool
}

// Open loads (or creates) the store in opts.Dir: snapshot first, an
// interrupted compaction settled, the WAL replayed on top, corruption
// quarantined, and the WAL compacted into a fresh snapshot when it is past
// the compaction trigger or had a damaged tail. A file in another format
// version fails Open with ErrUnsupportedFormat.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:   opts,
		plans:  make(map[planKey]plancache.PlanRecord),
		epoch:  1,
		notify: make(chan struct{}),
	}
	s.cat.Store(&catalog{})
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.settleTemps(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	// A damaged tail or an oversized log folds into a fresh snapshot now,
	// so the next crash replays from a clean base.
	if s.quarantinedTail > 0 || s.compactDueLocked() {
		if err := s.compact(false); err != nil {
			s.wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// PutModel registers (or refreshes) a labeled model and logs it to the
// WAL. When the label previously mapped to a different model, the old
// model's plans are dropped and an invalidation is logged — the
// durable form of a drift refresh. It returns the model it replaced: nil
// when the label was new, or when it already held an identical model.
func (s *Store) PutModel(label string, m *speed.Model) (*speed.Model, error) {
	if len(m.Fns()) == 0 {
		return nil, fmt.Errorf("store: empty model")
	}
	if label == "" {
		return nil, fmt.Errorf("store: empty model label")
	}
	// Labels are stored tenant-qualified; bare names belong to the
	// default tenant. Canonicalize before encoding so the WAL record
	// already carries the canonical spelling.
	label = fabric.CanonicalLabel(label)
	e := &encoder{}
	if err := e.model(m.Fingerprint(), label, m.Fns()); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if s.sealed {
		return nil, ErrSealed
	}
	old, _ := s.cat.Load().lookup(label)
	if old != nil && old.Fingerprint() == m.Fingerprint() {
		// Same label, same model: nothing to refresh.
		return nil, nil
	}
	if err := s.appendLocked(e.buf); err != nil {
		return nil, err
	}
	if old != nil {
		inv := &encoder{}
		inv.invalidate(old.Fingerprint())
		if err := s.appendLocked(inv.buf); err != nil {
			return nil, err
		}
	}
	s.putModelLocked(label, m)
	s.publishLocked()
	return old, nil
}

// putModelLocked installs m under label, dropping the model the label
// named before (if another) and everything derived from it. Shared by the
// live PutModel and model-record replay.
func (s *Store) putModelLocked(label string, m *speed.Model) {
	c := s.editLocked()
	if old, ok := c.lookup(label); ok && old.Fingerprint() != m.Fingerprint() {
		c.drop(old.Fingerprint())
		s.dropPlansLocked(old.Fingerprint())
	}
	c.put(label, m)
}

// editLocked returns the draft catalog a write changes in place: a private
// copy of the published catalog, made on the write's first edit. A write
// is one live mutation, one ingested chunk, or one replayed snapshot or
// log, and ends with publishLocked, so readers see all of it or none of it
// and a write of k records copies the table once.
func (s *Store) editLocked() *catalog {
	if s.draft == nil {
		d := *s.cat.Load()
		d.copiedModels, d.copiedLabels = [catalogShards]bool{}, [catalogShards]bool{}
		s.draft = &d
	}
	return s.draft
}

// viewLocked returns the catalog as the write in progress sees it.
func (s *Store) viewLocked() *catalog {
	if s.draft != nil {
		return s.draft
	}
	return s.cat.Load()
}

// publishLocked ends a write: its draft, if it made one, becomes the
// catalog readers see.
func (s *Store) publishLocked() {
	if s.draft != nil {
		s.cat.Store(s.draft)
		s.draft = nil
	}
}

// RefreshProcessor replaces one processor's speed function in the model a
// label maps to, appending an O(one processor) delta record to the WAL
// instead of a full model record. The stored plans for the model are
// migrated by the same selective rule the plan cache uses
// (plancache.SurvivesProc): plans whose allocation provably cannot change
// are re-keyed to the new fingerprint, the rest are dropped — no
// per-survivor records are written, because every replayer re-derives the
// same split deterministically from the delta alone. It returns the old
// and new models it applied (the same handle when the replacement function
// fingerprints identically to the current one: a no-op, nothing logged).
// An unknown label is ErrUnknownLabel, a processor index the model does
// not have ErrProcOutOfRange.
func (s *Store) RefreshProcessor(label string, proc int, fn speed.Function) (old, refreshed *speed.Model, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, fmt.Errorf("store: closed")
	}
	if s.sealed {
		return nil, nil, ErrSealed
	}
	label = fabric.CanonicalLabel(label)
	m, ok := s.cat.Load().lookup(label)
	if !ok {
		return nil, nil, fmt.Errorf("%w %q", ErrUnknownLabel, label)
	}
	if proc < 0 || proc >= len(m.Fns()) {
		return nil, nil, fmt.Errorf("%w: model %q has %d processors, refresh asked for index %d", ErrProcOutOfRange, label, len(m.Fns()), proc)
	}
	refreshed = m.WithProc(proc, fn)
	if refreshed.Fingerprint() == m.Fingerprint() {
		return m, m, nil
	}
	e := &encoder{}
	if err := e.delta(m.Fingerprint(), refreshed.Fingerprint(), proc, fn); err != nil {
		return nil, nil, err
	}
	if err := s.appendLocked(e.buf); err != nil {
		return nil, nil, err
	}
	s.refreshStateLocked(m, refreshed, proc)
	s.publishLocked()
	s.refreshes++
	s.maybeCompactLocked()
	return m, refreshed, nil
}

// refreshStateLocked applies a validated one-processor refresh to the
// in-memory state: the model moves to its new fingerprint, every name
// that resolved to it follows, and plans re-key or drop per the
// selective rule. Shared by the live RefreshProcessor and delta-record
// replay, so disk replay and the live path converge on identical state.
func (s *Store) refreshStateLocked(old, refreshed *speed.Model, proc int) {
	oldFP, newFP := old.Fingerprint(), refreshed.Fingerprint()
	s.editLocked().move(oldFP, refreshed)

	oldFn, newFn := old.Fns()[proc], refreshed.Fns()[proc]
	kept := s.planOrder[:0]
	for _, k := range s.planOrder {
		if k.model != oldFP {
			kept = append(kept, k)
			continue
		}
		r := s.plans[k]
		delete(s.plans, k)
		if len(r.Alloc) != len(refreshed.Fns()) || !plancache.SurvivesProc(r.Alloc[proc], oldFn, newFn) {
			continue
		}
		nk := k
		nk.model = newFP
		if _, dup := s.plans[nk]; dup {
			continue // a plan under the new fingerprint already exists
		}
		r.Model = newFP
		s.plans[nk] = r
		kept = append(kept, nk)
	}
	s.planOrder = kept
}

// applyDelta validates and applies a replayed delta record: the referenced
// model must exist, the processor index must be in range, and patching the
// function must reproduce the recorded composed fingerprint — a delta
// whose fingerprint lies is quarantined, never applied. It returns the
// old and new models, nil when the record was quarantined.
func (s *Store) applyDelta(oldFP, newFP uint64, proc int, fn speed.Function) (old, refreshed *speed.Model) {
	e, ok := s.viewLocked().entry(oldFP)
	if !ok || proc < 0 || proc >= len(e.model.Fns()) {
		s.quarantined++
		return nil, nil
	}
	refreshed = e.model.WithProc(proc, fn)
	if refreshed.Fingerprint() != newFP {
		s.quarantined++
		return nil, nil
	}
	if newFP != oldFP {
		s.refreshStateLocked(e.model, refreshed, proc)
	}
	s.refreshes++
	return e.model, refreshed
}

// AppendPlan logs one admitted plan insertion (the cache's insert tap).
// Plans for models the store does not know are dropped silently — they
// could not be validated on replay anyway.
func (s *Store) AppendPlan(r plancache.PlanRecord) error {
	if !r.Valid() {
		return fmt.Errorf("store: invalid plan record (n=%d, %d shares)", r.N, len(r.Alloc))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.sealed {
		return ErrSealed
	}
	if _, ok := s.cat.Load().entry(r.Model); !ok {
		return nil
	}
	e := &encoder{}
	e.plan(&r)
	if err := s.appendLocked(e.buf); err != nil {
		return err
	}
	s.putPlanLocked(r)
	s.maybeCompactLocked()
	return nil
}

// AppendPlanBatch logs several admitted plans under one lock acquisition
// and a single kernel write: the frames are concatenated and written
// together, so a group of concurrent inserts costs one write(2) instead of
// one per record. Durability is unchanged — the batch reaches the kernel
// before the call returns, and the SyncEvery fsync cadence counts every
// record in the batch. Records for unknown models are dropped silently,
// exactly as AppendPlan drops them; an invalid record fails the whole
// batch before anything is written.
func (s *Store) AppendPlanBatch(rs []plancache.PlanRecord) error {
	for i := range rs {
		if !rs[i].Valid() {
			return fmt.Errorf("store: invalid plan record (n=%d, %d shares)", rs[i].N, len(rs[i].Alloc))
		}
	}
	if len(rs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.sealed {
		return ErrSealed
	}
	s.groupCommits++
	s.groupHist[commitBucket(len(rs))]++
	kept, size := rs[:0:0], 0
	c := s.cat.Load()
	for i := range rs {
		if _, ok := c.entry(rs[i].Model); ok {
			kept = append(kept, rs[i])
			size += planFrameSize(&rs[i])
		}
	}
	if len(kept) == 0 {
		return nil
	}
	// The group's frames are encoded in place into one buffer of exactly
	// their size, and written with one write call.
	e := &encoder{buf: make([]byte, 0, size)}
	for i := range kept {
		e.plan(&kept[i])
	}
	s.groupedRecs += uint64(len(kept))
	if err := s.writeFramesLocked(e.buf, len(kept)); err != nil {
		return err
	}
	for _, r := range kept {
		s.putPlanLocked(r)
	}
	s.maybeCompactLocked()
	return nil
}

// commitBucket maps a batch size onto its power-of-two histogram bucket:
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65+.
func commitBucket(n int) int {
	b := bits.Len(uint(n - 1))
	if b > 7 {
		return 7
	}
	return b
}

// Model returns a stored model by fingerprint. It takes no lock and
// copies nothing.
func (s *Store) Model(fp uint64) (*speed.Model, bool) {
	e, ok := s.cat.Load().entry(fp)
	return e.model, ok
}

// ModelByLabel returns the model a label currently maps to. Bare and
// default-qualified spellings resolve identically. It takes no lock and
// copies nothing: the label is taken as bytes, so a request's model name
// resolves straight from the wire buffer.
func (s *Store) ModelByLabel(label []byte) (*speed.Model, bool) {
	m, ok := s.cat.Load().labels[nameShard(label)][string(label)]
	return m, ok
}

// Models lists the stored models, sorted by label then fingerprint.
func (s *Store) Models() []ModelInfo {
	c := s.cat.Load()
	out := make([]ModelInfo, 0, c.count())
	for _, shard := range c.models {
		for fp, e := range shard {
			out = append(out, ModelInfo{Fingerprint: fp, Label: e.label, Processors: len(e.model.Fns())})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Plans returns the stored plans in insertion order, ready for
// plancache.Import.
func (s *Store) Plans() []plancache.PlanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]plancache.PlanRecord, 0, len(s.plans))
	for _, k := range s.planOrder {
		if r, ok := s.plans[k]; ok {
			r.Alloc = append(core.Allocation(nil), r.Alloc...)
			out = append(out, r)
		}
	}
	return out
}

// Sync forces the WAL to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.wal == nil {
		return nil
	}
	s.unsynced = 0
	return s.wal.Sync()
}

// Snapshot writes a full snapshot and starts a new WAL generation holding
// only the records appended while it was written.
func (s *Store) Snapshot() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compact(false)
}

// Close stops the background compactor, writes a final snapshot (the
// graceful-drain path: the WAL is flushed into it) and releases the files.
// Idempotent.
func (s *Store) Close() error {
	s.stopCompactor()
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	err := s.compact(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Models:               s.cat.Load().count(),
		Plans:                len(s.plans),
		WALRecords:           s.walTotal,
		WALBytes:             s.walBytes,
		WALFrames:            s.walFrames,
		Compactions:          s.compacted,
		WALAppendedBytes:     s.walAppended,
		CompactedBytes:       s.compactedBytes,
		CompactionsAbandoned: s.abandoned,
		Epoch:                s.epoch,
		Gen:                  s.gen,
		Refreshes:            s.refreshes,
		Sealed:               s.sealed,
		ReplayedModels:       s.replayedModels,
		ReplayedPlans:        s.replayedPlans,
		QuarantinedRecords:   s.quarantined,
		QuarantinedTail:      s.quarantinedTail,
		SnapshotQuarantined:  s.snapQuarantined,
		LoadedFromSnapshot:   s.loadedSnapshot,
		SyncEvery:            s.opts.SyncEvery,
		GroupCommits:         s.groupCommits,
		GroupedRecords:       s.groupedRecs,
		GroupCommitHist:      s.groupHist,
	}
}

// --- in-memory state transitions (callers hold mu) ---

// putPlanLocked installs a plan in the mirror, FIFO-bounded.
func (s *Store) putPlanLocked(r plancache.PlanRecord) {
	k := planKey{model: r.Model, n: r.N, algo: r.Algo, opts: r.OptsKey}
	if _, exists := s.plans[k]; !exists {
		s.planOrder = append(s.planOrder, k)
	}
	s.plans[k] = r
	for len(s.plans) > s.opts.MaxPlans && len(s.planOrder) > 0 {
		oldest := s.planOrder[0]
		s.planOrder = s.planOrder[1:]
		delete(s.plans, oldest)
	}
}

// dropPlansLocked removes every plan derived from a model.
func (s *Store) dropPlansLocked(model uint64) {
	kept := s.planOrder[:0]
	for _, k := range s.planOrder {
		if k.model == model {
			delete(s.plans, k)
		} else {
			kept = append(kept, k)
		}
	}
	s.planOrder = kept
}

// --- replay validation (shared by snapshot load and WAL replay) ---

// applyModel validates and installs a replayed model record: the handle
// built from the decoded functions must reproduce the recorded
// fingerprint, else the record is quarantined (a stale or corrupted model
// must never validate plans).
func (s *Store) applyModel(fp uint64, label string, fns []speed.Function) {
	m := speed.NewModel(fns)
	if label == "" || m.Fingerprint() != fp {
		s.quarantined++
		return
	}
	s.putModelLocked(label, m)
	s.replayedModels++
}

// applyPlan validates and installs a replayed plan record.
func (s *Store) applyPlan(r plancache.PlanRecord) bool {
	e, ok := s.viewLocked().entry(r.Model)
	if !ok || !r.Valid() || len(r.Alloc) != len(e.model.Fns()) {
		s.quarantined++
		return false
	}
	s.putPlanLocked(r)
	s.replayedPlans++
	return true
}

// applyRecord dispatches one replayed payload, through the exact same
// validation whether it came from the local snapshot, the local WAL, or a
// replication stream. Unknown record types are quarantined, not fatal — a
// newer writer's records degrade gracefully. When cap is non-nil, every
// plan, invalidation and delta that validated and was installed is
// also captured there, so a replica can mirror the change into its live
// cache; models need no capture, because the catalog is the replica's only
// model table.
func (s *Store) applyRecord(payload []byte, cap *Replicated) {
	d := &decoder{buf: payload}
	switch d.u8() {
	case recModel:
		fp, label, fns, err := decodeModel(d)
		if err != nil || !d.done() {
			s.quarantined++
			return
		}
		s.applyModel(fp, label, fns)
	case recPlan:
		r, err := decodePlan(d)
		if err != nil || !d.done() {
			s.quarantined++
			return
		}
		if s.applyPlan(r) && cap != nil {
			cap.Plans = append(cap.Plans, r)
		}
	case recHint:
		// Files written before plans became pure functions of their key
		// carry warm-start hints; nothing reads them any more.
		if !skipHint(d) {
			s.quarantined++
		}
	case recInvalidate:
		model, err := decodeInvalidate(d)
		if err != nil || !d.done() {
			s.quarantined++
			return
		}
		s.dropPlansLocked(model)
		if cap != nil {
			cap.Invalidated = append(cap.Invalidated, model)
		}
	case recModelDelta:
		oldFP, newFP, proc, fn, err := decodeDelta(d)
		if err != nil || !d.done() {
			s.quarantined++
			return
		}
		if old, refreshed := s.applyDelta(oldFP, newFP, proc, fn); old != nil && cap != nil {
			cap.Deltas = append(cap.Deltas, ReplDelta{Old: old, New: refreshed})
		}
	case recMeta:
		epoch, gen, err := decodeMeta(d)
		if err != nil || !d.done() {
			s.quarantined++
			return
		}
		// Meta never regresses the epoch: a replayed or streamed record
		// from before a promotion must not undo the fence.
		if epoch > s.epoch {
			s.epoch = epoch
		}
		if gen > s.gen {
			s.gen = gen
		}
	default:
		s.quarantined++
	}
}

// --- WAL ---

// openWAL opens (creating if needed) and replays the log.
func (s *Store) openWAL() error {
	path := filepath.Join(s.opts.Dir, walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.wal = f
		return nil
	}
	if err := checkMagic(data, walMagic); err != nil {
		f.Close()
		if errors.Is(err, ErrUnsupportedFormat) {
			return fmt.Errorf("%w (%s)", err, path)
		}
		// Unrecognized log: set it aside and start fresh rather than guess.
		if err := quarantineFile(path); err != nil {
			return err
		}
		s.quarantinedTail += int64(len(data))
		return s.openWAL()
	}
	// Replay the whole frames; a torn or corrupt one ends the log, and the
	// tail from it on is cut.
	recs, good, err := splitFrames(data[len(walMagic):])
	for _, p := range recs {
		s.applyRecord(p, nil)
	}
	s.publishLocked()
	if err != nil {
		s.quarantinedTail += int64(len(data) - len(walMagic) - good)
		if err := f.Truncate(int64(len(walMagic) + good)); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating corrupt WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.wal = f
	s.walBytes = int64(good)
	s.walFrames = int64(len(recs))
	return nil
}

// appendLocked writes one framed record to the WAL.
func (s *Store) appendLocked(frame []byte) error {
	return s.writeFramesLocked(frame, 1)
}

// writeFramesLocked writes already-framed records to the WAL in a single
// write call, counts them, wakes the WAL streamers, and fsyncs every
// SyncEvery records: the bookkeeping every WAL append shares, local
// records and ingested stream frames alike.
func (s *Store) writeFramesLocked(buf []byte, frames int) error {
	n, err := s.wal.Write(buf)
	s.walBytes += int64(n)
	s.walAppended += int64(n)
	if err != nil {
		return fmt.Errorf("store: WAL append: %w", err)
	}
	s.walTotal += uint64(frames)
	s.walFrames += int64(frames)
	s.unsynced += frames
	s.notifyLocked()
	if s.unsynced >= s.opts.SyncEvery {
		s.unsynced = 0
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: WAL sync: %w", err)
		}
	}
	return nil
}

// notifyLocked wakes every WAL-stream long-poller: the committed region of
// the log changed (an append or a generation change).
func (s *Store) notifyLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// --- snapshot ---

// replaySnapshot replaces the in-memory state with a snapshot image and
// returns the generation its meta frame is stamped with. Boot and
// replication handoff both load through it. The image is checked end
// to end before any state is touched: the current magic, whole CRC-clean
// frames, and a terminator that closes the image and counts every record
// frame before it but the meta frame — any other count means frames went
// missing without breaking a CRC. The leading meta frame's epoch is then
// fenced: an image older than the store's epoch is ErrFencedEpoch. Every
// refusal leaves the state as it was. The records apply through
// applyRecord, so a lying one is quarantined exactly as in WAL replay.
func (s *Store) replaySnapshot(data []byte, cap *Replicated) (gen uint64, err error) {
	if err := checkMagic(data, snapMagic); err != nil {
		return 0, err
	}
	recs, _, err := splitFrames(data[len(snapMagic):])
	if err != nil || len(recs) == 0 || recs[len(recs)-1][0] != recSnapEnd {
		return 0, fmt.Errorf("%w: snapshot does not end with a terminator", ErrCorruptFrame)
	}
	d := &decoder{buf: recs[len(recs)-1][1:]}
	wantModels, wantPlans, wantSkipped, err := decodeSnapEnd(d)
	if err != nil || !d.done() {
		return 0, fmt.Errorf("%w: snapshot terminator", ErrCorruptFrame)
	}
	recs = recs[:len(recs)-1]
	seen := 0
	for _, p := range recs {
		switch p[0] {
		case recSnapEnd:
			return 0, fmt.Errorf("%w: snapshot terminator before the end", ErrCorruptFrame)
		case recMeta:
		default:
			seen++
		}
	}
	if seen != wantModels+wantPlans+wantSkipped {
		return 0, fmt.Errorf("%w: snapshot terminator counts %d records, image holds %d",
			ErrCorruptFrame, wantModels+wantPlans+wantSkipped, seen)
	}
	if len(recs) > 0 && recs[0][0] == recMeta {
		d := &decoder{buf: recs[0][1:]}
		epoch, g, err := decodeMeta(d)
		if err == nil && epoch < s.epoch {
			return 0, ErrFencedEpoch
		}
		gen = g
	}
	s.resetStateLocked()
	for _, p := range recs {
		s.applyRecord(p, cap)
	}
	s.publishLocked()
	return gen, nil
}

// loadSnapshot reads the snapshot if present. An image replaySnapshot
// refuses is quarantined as a whole (renamed aside) and the store starts
// empty: WAL records depending on snapshot state then quarantine
// individually during replay. Another format version fails Open instead.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.opts.Dir, snapshotFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	switch _, err := s.replaySnapshot(data, nil); {
	case err == nil:
		s.loadedSnapshot = true
		s.lastSnap = int64(len(data))
		return nil
	case errors.Is(err, ErrUnsupportedFormat):
		return fmt.Errorf("%w (%s)", err, path)
	default:
		s.snapQuarantined = true
		return quarantineFile(path)
	}
}

// --- file helpers ---

// syncDir fsyncs a directory so a rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// quarantineFile renames a corrupt file aside (never deletes it), picking
// the first free .corrupt[.k] name.
func quarantineFile(path string) error {
	target := path + ".corrupt"
	for k := 1; ; k++ {
		if _, err := os.Stat(target); os.IsNotExist(err) {
			break
		}
		target = fmt.Sprintf("%s.corrupt.%d", path, k)
	}
	if err := os.Rename(path, target); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", path, err)
	}
	return nil
}
