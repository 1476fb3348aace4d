package store

// Replication surface of the store. The WAL is already a replication log —
// self-delimiting CRC32C frames appended with single write calls — so a
// replica is bootstrapped with a snapshot handoff (the full state in
// snapshot format, pinned against compaction while it travels) and then
// kept current by shipping the raw frame bytes that follow. Positions are
// (generation, byte offset): every compaction starts a new generation, so
// an offset is only meaningful within the generation it was issued for,
// and a streamer holding a dead generation must re-handoff.
//
// Two invariants carry the failover guarantees:
//
//   - epoch fencing: every store carries a monotonic epoch (persisted in
//     the snapshot meta frame and in WAL meta records). A follower ingests
//     only chunks stamped with an epoch >= its own; promotion bumps the
//     epoch, so a zombie primary's late frames — stamped with the old
//     epoch — are rejected, never applied.
//   - validated replay everywhere: streamed frames go through the exact
//     applyRecord path boot-time replay uses, so a lying record is
//     quarantined on a replica exactly as it would be locally, and a
//     torn or bit-flipped frame is cut off, never half-applied.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// Replication errors.
var (
	// ErrGenGone reports a WAL position from a generation that no longer
	// exists (the source compacted); the streamer must re-handoff.
	ErrGenGone = errors.New("store: WAL generation gone")
	// ErrFencedEpoch reports a replication payload stamped with an epoch
	// older than the store's own — a zombie primary's late frames.
	ErrFencedEpoch = errors.New("store: fenced epoch")
	// ErrSealed reports a mutation attempted while the store is sealed for
	// a planned handover: the committed log end is frozen until the
	// successor takes over (or the handover aborts and Unseals).
	ErrSealed = errors.New("store: sealed for handover")
)

// ReplPos is a position in a store's replicated log.
type ReplPos struct {
	Epoch  uint64 `json:"epoch"`
	Gen    uint64 `json:"gen"`
	Offset int64  `json:"offset"` // WAL bytes past the header
	Frames int64  `json:"frames"` // frames in the WAL this generation
}

// ReplDelta is one replicated one-processor model refresh: Old is the
// model the refresh applied to and New the model with one processor
// replaced. The mirror applies it with plancache.Cache.Refresh, which
// re-derives the same survivor set the store kept.
type ReplDelta struct {
	Old, New *speed.Model
}

// Replicated reports what one ingested snapshot or chunk installed, so the
// replica can mirror the changes into its live cache. Models are not
// reported: the store's catalog is the only model table.
type Replicated struct {
	Plans       []plancache.PlanRecord
	Invalidated []uint64
	Deltas      []ReplDelta

	Frames      int   // complete valid frames applied
	Bytes       int64 // bytes of those frames (the confirmed-offset advance)
	Quarantined int   // records that failed validation and were dropped
}

// Epoch returns the store's fencing epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ReplicationPos returns the current end of the replicated log.
func (s *Store) ReplicationPos() ReplPos {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posLocked()
}

func (s *Store) posLocked() ReplPos {
	return ReplPos{Epoch: s.epoch, Gen: s.gen, Offset: s.walBytes, Frames: s.walFrames}
}

// AppendWait returns a channel closed at the next change of the committed
// log (an append or a compaction) — the long-poll primitive for WAL
// streamers. Grab the channel, read the chunk; if it was empty, wait.
func (s *Store) AppendWait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}

// PinCompaction defers automatic WAL compaction until the returned release
// runs, keeping a handed-off (gen, offset) position alive while the
// snapshot travels to a replica: no compaction starts while a pin is held,
// and one already encoding abandons its image at the switch. Pins nest;
// explicit Snapshot and Close still compact (a closing store owes nothing
// to its streamers — they re-handoff). Release is idempotent, and the
// last release re-checks the compaction trigger.
func (s *Store) PinCompaction() (release func()) {
	s.mu.Lock()
	s.pins++
	s.mu.Unlock()
	released := false
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if released {
			return
		}
		released = true
		s.pins--
		s.maybeCompactLocked()
	}
}

// HandoffSnapshot encodes the full state in snapshot format and returns it
// with the log position it is consistent with: the frames that follow
// pos.Offset in pos.Gen are exactly the delta. The state is captured under
// the store lock exactly as a compaction captures it and encoded without
// it; the WAL is not reset. Callers that cannot tolerate a re-handoff
// should PinCompaction around the window between this call and the
// replica's first chunk read.
func (s *Store) HandoffSnapshot() ([]byte, ReplPos, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ReplPos{}, fmt.Errorf("store: closed")
	}
	c, pos := s.captureLocked(), s.posLocked()
	s.mu.Unlock()
	buf, err := c.encode(c.gen)
	if err != nil {
		return nil, ReplPos{}, err
	}
	return buf, pos, nil
}

// ReadWALChunk reads up to maxBytes of raw frame bytes starting at offset
// in generation gen, ending on a frame boundary (at least one whole frame
// when any is available, regardless of maxBytes). It returns the chunk and
// the current end position, so the reader can compute its lag. A stale
// generation or an out-of-range offset returns ErrGenGone — the caller's
// position no longer names committed bytes and a re-handoff is required.
func (s *Store) ReadWALChunk(gen uint64, offset int64, maxBytes int) ([]byte, ReplPos, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ReplPos{}, fmt.Errorf("store: closed")
	}
	if gen != s.gen || offset < 0 || offset > s.walBytes {
		return nil, s.posLocked(), ErrGenGone
	}
	avail := s.walBytes - offset
	if avail == 0 {
		return nil, s.posLocked(), nil
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	n := avail
	if n > int64(maxBytes) {
		n = int64(maxBytes)
	}
	chunk := make([]byte, n)
	if _, err := s.wal.ReadAt(chunk, int64(len(walMagic))+offset); err != nil {
		return nil, s.posLocked(), fmt.Errorf("store: reading WAL: %w", err)
	}
	// Trim to the last complete frame inside the cap.
	if _, whole, _ := splitFrames(chunk); whole > 0 {
		return chunk[:whole], s.posLocked(), nil
	}
	// The first frame alone exceeds maxBytes: return it whole.
	frameLen := int64(8) + int64(binary.LittleEndian.Uint32(chunk[0:4]))
	if frameLen > avail {
		return nil, s.posLocked(), fmt.Errorf("store: WAL frame overruns committed bytes")
	}
	chunk = make([]byte, frameLen)
	if _, err := s.wal.ReadAt(chunk, int64(len(walMagic))+offset); err != nil {
		return nil, s.posLocked(), fmt.Errorf("store: reading WAL: %w", err)
	}
	return chunk, s.posLocked(), nil
}

// IngestChunk applies one chunk of streamed frame bytes: each complete,
// CRC-valid frame is appended to the local WAL verbatim and replayed
// through the validated-apply path; a trailing partial frame (the primary
// died mid-send) is kept on disk past the committed boundary so a later
// promotion seals it off exactly like boot-time replay, while the ingester
// re-requests from the confirmed offset. A complete frame with a wrong
// checksum stops the chunk: the valid prefix is applied, the corrupt frame
// and everything after it are dropped, and ErrCorruptFrame tells the
// caller to resync from the (advanced) confirmed offset — a corrupt frame
// is never applied.
//
// epoch stamps the chunk's origin; a stamp older than the store's own
// epoch returns ErrFencedEpoch without touching anything.
func (s *Store) IngestChunk(epoch uint64, chunk []byte) (Replicated, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep Replicated
	if s.closed {
		return rep, fmt.Errorf("store: closed")
	}
	if epoch < s.epoch {
		return rep, ErrFencedEpoch
	}
	if len(chunk) == 0 {
		return rep, nil
	}
	// A previous chunk left a torn tail on disk; the caller re-requested
	// from the confirmed offset, so those bytes arrive again — drop them
	// first.
	if s.tornBytes > 0 {
		if err := s.truncateTornLocked(); err != nil {
			return rep, err
		}
	}
	// Split the chunk: valid whole frames | torn tail | (corrupt rest).
	payloads, valid, err := splitFrames(chunk)
	corrupt := errors.Is(err, ErrCorruptFrame)
	tail := chunk[valid:]
	if corrupt {
		tail = nil // never persist a frame that failed its checksum
	}
	if len(payloads) > 0 {
		if err := s.writeFramesLocked(chunk[:valid], len(payloads)); err != nil {
			return rep, err
		}
	}
	if len(tail) > 0 {
		if _, err := s.wal.Write(tail); err != nil {
			return rep, fmt.Errorf("store: ingest append: %w", err)
		}
		s.tornBytes = int64(len(tail))
	}
	quarBefore := s.quarantined
	for _, p := range payloads {
		s.applyRecord(p, &rep)
	}
	s.publishLocked()
	rep.Frames = len(payloads)
	rep.Bytes = int64(valid)
	rep.Quarantined = s.quarantined - quarBefore
	s.maybeCompactLocked()
	if corrupt {
		return rep, fmt.Errorf("%w: bit-flipped streamed frame", ErrCorruptFrame)
	}
	return rep, nil
}

// truncateTornLocked cuts the un-applied tail bytes off the WAL file,
// restoring the committed frame boundary.
func (s *Store) truncateTornLocked() error {
	if err := s.wal.Truncate(int64(len(walMagic)) + s.walBytes); err != nil {
		return fmt.Errorf("store: truncating torn stream tail: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.tornBytes = 0
	return nil
}

// ApplyHandoff replaces the store's state with a handed-off snapshot: the
// bytes are validated end to end (magic, checksums, terminator counts)
// before any state is touched, applied through the validated-replay path,
// persisted as the local snapshot file, and the local WAL is reset — the
// follower's durability now starts from this state. Divergent local state
// (anything the snapshot does not contain) is dropped. A refused handoff
// leaves the store untouched: a foreign or damaged image returns
// ErrCorruptFrame, another format version ErrUnsupportedFormat, and an
// image stamped with an epoch older than the store's own ErrFencedEpoch, so
// a promoted store can never be re-absorbed by a zombie primary. The image
// is installed through the same crash-atomic switch a compaction uses,
// with an empty WAL, and waits for an in-flight compaction to finish
// first.
func (s *Store) ApplyHandoff(data []byte) (Replicated, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var w *walTemp
	defer func() {
		if w != nil {
			w.closeRetired() // after the deferred unlock below
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep Replicated
	if s.closed {
		return rep, fmt.Errorf("store: closed")
	}
	quarBefore := s.quarantined
	gen, err := s.replaySnapshot(data, &rep)
	if err != nil {
		return Replicated{}, err
	}
	rep.Quarantined = s.quarantined - quarBefore
	// Persist: the received bytes are already in snapshot format.
	if err := writeFileSync(filepath.Join(s.opts.Dir, snapshotTmp), data); err != nil {
		return rep, err
	}
	// The handoff's WAL starts empty: nothing of the current one carries
	// over.
	w, err = s.createWAL(gen, s.walBytes)
	if err != nil {
		return rep, err
	}
	if _, err := s.switchLocked(w, 0, int64(len(data))); err != nil {
		return rep, err
	}
	s.loadedSnapshot = true
	s.sealed = false // a demoted store re-enters life as a follower
	s.notifyLocked()
	return rep, nil
}

// resetStateLocked drops the in-memory state (models and plans) but
// keeps the epoch/gen fences — a reset must never weaken them. The models
// go from the draft catalog: readers keep the published one until the
// caller's write publishes.
func (s *Store) resetStateLocked() {
	s.draft = &catalog{}
	s.plans = make(map[planKey]plancache.PlanRecord)
	s.planOrder = nil
}

// Seal freezes the committed log for a planned handover and returns the
// final position of this primacy: every mutator (PutModel,
// RefreshProcessor, AppendPlan, AppendPlanBatch) refuses with ErrSealed
// until Unseal, Promote, or ApplyHandoff. Streamers keep reading — the
// whole point is that a successor can drain up to exactly the returned
// position and know nothing more will ever follow it under this epoch.
func (s *Store) Seal() ReplPos {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	return s.posLocked()
}

// Unseal lifts a Seal without a handover — the abort path when the
// designated successor never catches up.
func (s *Store) Unseal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = false
}

// Promote seals the store for independent writes after primary loss: the
// torn stream tail (if any) is cut off exactly like boot-time replay cuts
// a torn WAL tail, the epoch is bumped and logged (fencing every frame the
// dead primary may still emit), and the state is folded into a fresh
// snapshot so the new primary restarts clean. It returns the new epoch.
// An in-flight compaction finishes before the epoch moves.
func (s *Store) Promote() (uint64, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	epoch, err := s.bumpEpoch()
	if err != nil {
		return 0, err
	}
	if err := s.compact(false); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.sealed = false
	s.mu.Unlock()
	return epoch, nil
}

// bumpEpoch is Promote's first half, under the store lock: cut the torn
// tail, then bump the epoch and log it durably.
func (s *Store) bumpEpoch() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	if s.tornBytes > 0 {
		if err := s.truncateTornLocked(); err != nil {
			return 0, err
		}
	}
	s.epoch++
	e := &encoder{}
	e.meta(s.epoch, s.gen)
	if err := s.appendLocked(e.buf); err != nil {
		return 0, err
	}
	s.unsynced = 0
	if err := s.wal.Sync(); err != nil {
		return 0, fmt.Errorf("store: WAL sync: %w", err)
	}
	return s.epoch, nil
}
