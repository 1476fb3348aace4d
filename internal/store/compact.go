package store

// Compaction: folding the WAL into a fresh snapshot and starting the next
// WAL generation, off the request path.
//
// Trigger. The WAL is compacted when it outgrows the larger of
// Options.CompactAt and the snapshot it is layered on. Each compaction
// then rewrites less than twice the bytes appended since the previous one,
// however large the mirror grows, and boot replays at most about twice
// the live state. Appends, IngestChunk and Open apply the same rule.
//
// Background. An append that crosses the trigger only signals the
// store's compactor goroutine. The compaction captures the mirror and the
// WAL end under s.mu, encodes the snapshot, writes and fsyncs
// snapshot.tmp without it, and retakes it only for the switch. Close,
// Snapshot, Promote and Open run the same routine synchronously, and
// HandoffSnapshot encodes its own capture off the lock the same way.
// compactMu serializes compactions and handoff installs (the two writers
// of snapshot.tmp); it is always taken before s.mu and never while s.mu is
// held.
//
// Switch. The frames appended since the capture are moved into the new
// generation's WAL, crash-atomically:
//
//  1. write the header and those frames to wal.<gen>.tmp, named for the
//     new generation, and fsync it;
//  2. rename snapshot.tmp to snapshot.bin and fsync the directory — the
//     commit point;
//  3. rename wal.<gen>.tmp to wal.log.
//
// Open rolls forward a temp WAL whose generation matches the loaded
// snapshot's (a crash between 2 and 3) and deletes any other (a crash
// before 2), so a record is never lost and never applied twice.
//
// Abandon. A background compaction discards its image, with no
// generation change, when at the switch the store is pinned (a handoff's
// position must stay valid) or sealed (the sealed position must stay the
// final word), or when its epoch or generation moved since the capture (a
// streamed meta record replaced the state the image describes).

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"heteropart/internal/plancache"
)

// walTmpPrefix and walTmpSuffix frame the generation number in the name of
// a switch's temp WAL, wal.<gen>.tmp.
const (
	walTmpPrefix = "wal."
	walTmpSuffix = ".tmp"
)

func walTmpName(gen uint64) string {
	return walTmpPrefix + strconv.FormatUint(gen, 10) + walTmpSuffix
}

// compactStep names the points of a compaction a test's failure hook can
// stop it after.
type compactStep int

const (
	stepCapture        compactStep = iota // mirror and WAL end captured
	stepSnapshotSync                      // snapshot.tmp written and fsynced
	stepWALTemp                           // wal.<gen>.tmp written and fsynced
	stepSnapshotRename                    // snapshot.bin renamed, directory fsynced
	stepWALRename                         // wal.<gen>.tmp renamed to wal.log
)

// failAfter runs the test failure hook for step; nil without a hook.
func (s *Store) failAfter(step compactStep) error {
	if s.failHook == nil {
		return nil
	}
	return s.failHook(step)
}

// triggerLocked is the WAL size past which a compaction is due: the larger
// of CompactAt and the last snapshot.
func (s *Store) triggerLocked() int64 {
	return max(s.opts.CompactAt, s.lastSnap)
}

// compactDueLocked reports whether an automatic compaction should run.
func (s *Store) compactDueLocked() bool {
	return s.opts.CompactAt > 0 && s.pins == 0 && !s.sealed && s.walBytes > s.triggerLocked()
}

// maybeCompactLocked signals the compactor when the WAL has crossed the
// trigger, starting the goroutine on the first signal. It never waits: the
// append that crossed the trigger returns at once. A pinned or sealed
// store defers; the next append, or the pin's release, signals again.
func (s *Store) maybeCompactLocked() {
	if s.stopped || s.compactQueued || !s.compactDueLocked() {
		return
	}
	if s.kick == nil {
		s.kick = make(chan struct{}, 1)
		s.quit, s.exited = make(chan struct{}), make(chan struct{})
		go s.compactor()
	}
	s.compactQueued = true
	s.kick <- struct{}{} // buffered; compactQueued keeps it at most one deep
}

// compactor is the store's background goroutine: it runs one automatic
// compaction per signal until Close stops it. A failed compaction leaves
// the WAL growing, and the re-check after it (or a later append) retries.
func (s *Store) compactor() {
	defer close(s.exited)
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		s.compactMu.Lock()
		_ = s.compact(true)
		s.compactMu.Unlock()
		s.mu.Lock()
		s.compactQueued = false
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
}

// stopCompactor stops the background goroutine, if one started, and
// waits for it to exit; no compactor starts afterwards.
func (s *Store) stopCompactor() {
	s.mu.Lock()
	running := s.kick != nil && !s.stopped
	s.stopped = true
	s.mu.Unlock()
	if running {
		close(s.quit)
		<-s.exited
	}
}

// capture is the state one snapshot image encodes, taken under s.mu in a
// single pass. Installed records and the published catalog are immutable,
// so the capture keeps the catalog pointer and copies plan record headers,
// never a share vector or a function.
type capture struct {
	epoch, gen        uint64
	walEnd, walFrames int64 // the WAL prefix the image covers
	cat               *catalog
	plans             []plancache.PlanRecord
	size              int64 // buffer presize: last snapshot plus the WAL it covers
}

func (s *Store) captureLocked() *capture {
	c := &capture{
		epoch: s.epoch, gen: s.gen,
		walEnd: s.walBytes, walFrames: s.walFrames,
		cat:   s.cat.Load(),
		plans: make([]plancache.PlanRecord, 0, len(s.plans)),
		size:  s.lastSnap + s.walBytes,
	}
	for _, k := range s.planOrder {
		if r, ok := s.plans[k]; ok {
			c.plans = append(c.plans, r)
		}
	}
	return c
}

// encode renders the capture in snapshot format — magic, meta frame,
// models by fingerprint, plans in recency order, terminator — stamped with
// gen: compaction stamps the next generation, a replication handoff the
// current one. It runs without s.mu.
func (c *capture) encode(gen uint64) ([]byte, error) {
	fps := make([]uint64, 0, c.cat.count())
	for _, shard := range c.cat.models {
		for fp := range shard {
			fps = append(fps, fp)
		}
	}
	slices.Sort(fps)
	e := &encoder{buf: make([]byte, 0, c.size+64)}
	e.buf = append(e.buf, snapMagic...)
	e.meta(c.epoch, gen)
	for _, fp := range fps {
		m, _ := c.cat.entry(fp)
		if err := e.model(fp, m.label, m.model.Fns()); err != nil {
			return nil, err
		}
	}
	for i := range c.plans {
		e.plan(&c.plans[i])
	}
	e.snapEnd(len(fps), len(c.plans))
	return e.buf, nil
}

// compact folds the mirror into a fresh snapshot and starts the next WAL
// generation (see the file comment). auto marks a background compaction:
// it re-checks the trigger at the capture and abandons its image at the
// switch when the store was pinned, sealed or replaced in between. A
// synchronous compaction never abandons; if its capture went stale, it
// captures again. Callers hold compactMu.
func (s *Store) compact(auto bool) error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return fmt.Errorf("store: closed")
		}
		if auto && !s.compactDueLocked() {
			s.mu.Unlock()
			return nil
		}
		c := s.captureLocked()
		s.mu.Unlock()

		tmp := filepath.Join(s.opts.Dir, snapshotTmp)
		var buf []byte
		err := s.failAfter(stepCapture)
		if err == nil {
			buf, err = c.encode(c.gen + 1)
		}
		if err == nil {
			err = writeFileSync(tmp, buf)
		}
		if err == nil {
			err = s.failAfter(stepSnapshotSync)
		}
		var w *walTemp
		if err == nil {
			w, err = s.prepareWAL(c.gen+1, c.walEnd)
		}
		if err != nil {
			return err
		}

		s.mu.Lock()
		stale := s.epoch != c.epoch || s.gen != c.gen
		if stale || auto && (s.pins > 0 || s.sealed) {
			if auto {
				s.abandoned++
			}
			s.mu.Unlock()
			w.discard()
			os.Remove(tmp) // best effort, as in discard
			if auto {
				return nil
			}
			continue
		}
		committed, err := s.switchLocked(w, s.walFrames-c.walFrames, int64(len(buf)))
		if committed {
			s.gen = c.gen + 1
			s.compacted++
			if auto {
				s.compactedBytes += int64(len(buf))
			}
			s.notifyLocked()
		}
		s.mu.Unlock()
		w.closeRetired()
		return err
	}
}

// walTemp is the next generation's WAL while a switch prepares it, under
// its temp name: from is the offset in the current WAL (past the header)
// up to which it holds that WAL's frames, size its bytes past the header.
// retired holds the files the switch replaced, still open so that the
// kernel frees their blocks at the last close — after s.mu is released,
// not inside the switch.
type walTemp struct {
	f          *os.File
	path       string
	from, size int64
	retired    []*os.File
}

// createWAL creates the temp WAL of generation gen, holding only the
// header; the current WAL's frames from offset from on belong in it.
func (s *Store) createWAL(gen uint64, from int64) (*walTemp, error) {
	path := filepath.Join(s.opts.Dir, walTmpName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &walTemp{f: f, path: path, from: from}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		w.discard()
		return nil, fmt.Errorf("store: %w", err)
	}
	return w, nil
}

// prepareWAL creates the temp WAL of generation gen and, without s.mu,
// copies in the current WAL's frames from offset from on, one fsynced pass
// after another until a pass finds little new: the switch, under s.mu,
// then copies only what was appended during the last pass. Callers hold
// compactMu, so s.wal is not replaced meanwhile, and the bytes below
// walBytes never change.
func (s *Store) prepareWAL(gen uint64, from int64) (*walTemp, error) {
	w, err := s.createWAL(gen, from)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 4; pass++ {
		s.mu.Lock()
		src, end := s.wal, s.walBytes
		s.mu.Unlock()
		n, err := w.copyFrom(src, end)
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			w.discard()
			return nil, err
		}
		if n < 64<<10 {
			break
		}
	}
	return w, nil
}

// copyFrom appends src's frames between w.from and end to the temp WAL.
func (w *walTemp) copyFrom(src *os.File, end int64) (int64, error) {
	n, err := io.Copy(w.f, io.NewSectionReader(src, int64(len(walMagic))+w.from, end-w.from))
	w.from += n
	w.size += n
	if err != nil {
		return n, fmt.Errorf("store: copying WAL tail: %w", err)
	}
	return n, nil
}

// discard closes and deletes a temp WAL that will not be switched in. The
// removal is best effort: Open deletes any temp WAL a switch left behind.
func (w *walTemp) discard() {
	w.f.Close()
	os.Remove(w.path)
	w.closeRetired()
}

// closeRetired closes the files a switch replaced. Call it without s.mu.
func (w *walTemp) closeRetired() {
	for _, f := range w.retired {
		f.Close()
	}
	w.retired = nil
}

// switchLocked makes the fsynced snapshot.tmp (snapBytes long) the
// snapshot and w the WAL layered on it, in the crash-atomic order of the
// file comment, after copying into w the frames appended since its last
// pass; the new WAL then holds frames whole frames. committed reports
// whether the snapshot rename happened: from then on the temp WAL is this
// store's log whatever fails next — Open would roll it forward — so the
// in-memory switch completes and later errors are only reported.
// Compaction and handoff install share it. Callers hold compactMu and mu,
// and call w.closeRetired once mu is released.
func (s *Store) switchLocked(w *walTemp, frames, snapBytes int64) (committed bool, err error) {
	_, err = w.copyFrom(s.wal, s.walBytes)
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		err = s.failAfter(stepWALTemp)
	}
	snapPath := filepath.Join(s.opts.Dir, snapshotFile)
	if prev, openErr := os.Open(snapPath); openErr == nil {
		w.retired = append(w.retired, prev)
	}
	if err == nil {
		err = os.Rename(filepath.Join(s.opts.Dir, snapshotTmp), snapPath)
	}
	if err != nil {
		w.discard()
		return false, fmt.Errorf("store: %w", err)
	}
	err = syncDir(s.opts.Dir)
	if err == nil {
		err = s.failAfter(stepSnapshotRename)
	}
	if err == nil {
		err = os.Rename(w.path, filepath.Join(s.opts.Dir, walFile))
	}
	if err == nil {
		err = s.failAfter(stepWALRename)
	}
	w.retired = append(w.retired, s.wal)
	s.wal = w.f
	s.walBytes, s.walFrames = w.size, frames
	s.tornBytes, s.unsynced = 0, 0
	s.lastSnap = snapBytes
	if err != nil {
		return true, fmt.Errorf("store: %w", err)
	}
	return true, nil
}

// settleTemps finishes or undoes a switch a crash interrupted, before the
// WAL is opened: a temp WAL named for the loaded snapshot's generation is
// the log that goes with it and replaces wal.log; any other temp WAL, and
// a leftover snapshot.tmp, belong to a switch that never committed and are
// deleted.
func (s *Store) settleTemps() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		num, ok := strings.CutPrefix(name, walTmpPrefix)
		if num, ok = strings.CutSuffix(num, walTmpSuffix); !ok {
			continue
		}
		path := filepath.Join(s.opts.Dir, name)
		if gen, err := strconv.ParseUint(num, 10, 64); err == nil && s.loadedSnapshot && gen == s.gen {
			if err := os.Rename(path, filepath.Join(s.opts.Dir, walFile)); err != nil {
				return fmt.Errorf("store: rolling WAL forward: %w", err)
			}
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := os.Remove(filepath.Join(s.opts.Dir, snapshotTmp)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncChunk bounds the bytes writeFileSync writes between fsyncs. A
// snapshot flushed in one piece holds the device for its whole size, and
// every WAL fsync issued meanwhile (on the append path, under s.mu) queues
// behind it; in chunks, a WAL fsync waits for one chunk at most.
const syncChunk = 1 << 20

// writeFileSync writes data to path and fsyncs it, chunk by chunk.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for len(data) > 0 {
		n := min(len(data), syncChunk)
		_, err := f.Write(data[:n])
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		data = data[n:]
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
