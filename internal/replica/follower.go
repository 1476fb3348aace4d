package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heteropart/internal/faults"
	"heteropart/internal/store"
)

// Config configures a Follower. Primary and Store are required.
type Config struct {
	// Primary is the primary daemon's base URL (http://host:port).
	Primary string
	// Prefix is the replication path prefix on the primary
	// ("/v1/replication" when empty).
	Prefix string
	// Store is the follower's own store; everything streamed is replayed
	// into it through the validated-apply path.
	Store *store.Store
	// Client issues the HTTP requests (http.DefaultClient when nil).
	Client *http.Client
	// BackoffBase seeds the reconnect schedule (100ms when <= 0); pauses
	// come from faults.JitterBackoff keyed by BackoffKey(Primary), so they
	// are deterministic and never collide with the supervisor's schedule.
	BackoffBase time.Duration
	// Wait is the long-poll hold passed to the primary (2s when <= 0).
	Wait time.Duration
	// MaxChunk caps one WAL read (1 MiB when <= 0).
	MaxChunk int

	// OnReset is called after a snapshot handoff replaced the store's
	// state; the receiver must rebuild any live mirror (its plan cache)
	// from scratch.
	OnReset func(store.Replicated)
	// OnApply is called after each ingested chunk with what it installed,
	// so the live mirror tracks the store.
	OnApply func(store.Replicated)
	// OnState observes state transitions.
	OnState func(State)
}

// Follower replicates a primary into its own store: snapshot handoff, then
// the WAL frame stream, every byte validated by the same code that guards
// boot-time replay. Run drives the loop; Promote ends it and seals the
// store for independent writes.
type Follower struct {
	cfg    Config
	prefix string
	key    uint64

	state     atomic.Int32
	connected atomic.Bool
	confirmed atomic.Int64 // confirmed WAL offset (bytes) in the current gen
	frames    atomic.Int64
	gen       atomic.Uint64
	primEnd   atomic.Int64 // primary's committed end, last observed
	primFr    atomic.Int64

	handoffs   atomic.Int64
	resyncs    atomic.Int64
	reconnects atomic.Int64
	fenced     atomic.Int64
	corrupt    atomic.Int64
	torn       atomic.Int64
	applied    atomic.Int64

	// session is the handoff session to release on the first WAL read;
	// touched only by the Run goroutine.
	session string

	// stop is closed by Stop; Run watches it and cancels its own context,
	// so Stop is safe before Run, after Run, and from inside Run's
	// callbacks (it never waits). runWG tracks the goroutine Start spawned;
	// Close joins it.
	stop     chan struct{}
	stopOnce sync.Once
	runWG    sync.WaitGroup
}

// NewFollower validates cfg and returns an idle follower; call Run to
// start streaming.
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: Primary required")
	}
	if _, err := url.Parse(cfg.Primary); err != nil {
		return nil, fmt.Errorf("replica: bad primary URL: %w", err)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("replica: Store required")
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "/v1/replication"
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 2 * time.Second
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = 1 << 20
	}
	return &Follower{
		cfg:    cfg,
		prefix: cfg.Primary + cfg.Prefix,
		key:    BackoffKey(cfg.Primary),
		stop:   make(chan struct{}),
	}, nil
}

// State returns the follower's current lifecycle state.
func (f *Follower) State() State { return State(f.state.Load()) }

func (f *Follower) setState(s State) {
	if f.state.Swap(int32(s)) != int32(s) && f.cfg.OnState != nil {
		f.cfg.OnState(s)
	}
}

// Status snapshots the follower for /v1/stats.
func (f *Follower) Status() Status {
	confirmed, primEnd := f.confirmed.Load(), f.primEnd.Load()
	frames, primFr := f.frames.Load(), f.primFr.Load()
	lagB, lagF := primEnd-confirmed, primFr-frames
	if lagB < 0 {
		lagB = 0
	}
	if lagF < 0 {
		lagF = 0
	}
	return Status{
		State:   f.State().String(),
		Primary: f.cfg.Primary,
		Epoch:   f.cfg.Store.Epoch(),
		Gen:     f.gen.Load(),

		Confirmed: confirmed, Frames: frames,
		PrimaryOffset: primEnd, PrimaryFrames: primFr,
		LagBytes: lagB, LagFrames: lagF,

		Connected:  f.connected.Load(),
		Handoffs:   f.handoffs.Load(),
		Resyncs:    f.resyncs.Load(),
		Reconnects: f.reconnects.Load(),
		Fenced:     f.fenced.Load(),
		Corrupt:    f.corrupt.Load(),
		Torn:       f.torn.Load(),
		Applied:    f.applied.Load(),
	}
}

// Run follows the primary until ctx is cancelled or Promote is called. It
// always starts with a snapshot handoff — local state that the primary
// does not contain is divergence, and a handoff is the one operation that
// provably removes it — then streams WAL chunks, re-handing-off whenever
// the primary's generation moves underneath (compaction) and backing off
// with the deterministic jitter schedule on connection loss.
func (f *Follower) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	// The watcher translates Stop's signal into a context cancellation and
	// is joined before Run returns, so a Close that has seen Run exit knows
	// every goroutine Run owned is gone too.
	runDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-f.stop:
		case <-runDone:
		}
		cancel()
	}()
	defer func() {
		close(runDone)
		watch.Wait()
	}()
	defer f.connected.Store(false)

	attempt := 0
	pause := func() bool {
		f.reconnects.Add(1)
		t := time.NewTimer(faults.JitterBackoff(f.cfg.BackoffBase, attempt, f.key))
		attempt++
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctx.Done():
			return false
		}
	}

	for {
		// Check the stop signal directly (not only via the watcher's
		// cancellation) so a Stop issued before Run starts is honored
		// before the first handoff, deterministically.
		select {
		case <-f.stop:
			return context.Canceled
		default:
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		pos, err := f.handoff(ctx)
		if err != nil {
			f.connected.Store(false)
			if errors.Is(err, store.ErrFencedEpoch) {
				// The "primary" is behind our epoch — a zombie. Never
				// absorb its state; keep probing in case it catches up
				// (it cannot, unless re-seeded from the new primary).
				f.fenced.Add(1)
			}
			if !pause() {
				return ctx.Err()
			}
			continue
		}
		attempt = 0
		f.connected.Store(true)
		if err := f.stream(ctx, pos); err != nil {
			f.connected.Store(false)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, errGenGone) {
				f.resyncs.Add(1)
				continue // immediate re-handoff; the primary is alive
			}
			if !pause() {
				return ctx.Err()
			}
		}
	}
}

// errGenGone is the in-process signal for an HTTP 410 from the primary.
var errGenGone = errors.New("replica: generation gone")

// handoff fetches and applies a snapshot handoff, returning the log
// position the snapshot is consistent with.
func (f *Follower) handoff(ctx context.Context) (store.ReplPos, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.prefix+"/snapshot", nil)
	if err != nil {
		return store.ReplPos{}, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return store.ReplPos{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return store.ReplPos{}, fmt.Errorf("replica: handoff: %s", resp.Status)
	}
	pos, err := readPos(resp.Header)
	if err != nil {
		return store.ReplPos{}, err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return store.ReplPos{}, err
	}
	rep, err := f.cfg.Store.ApplyHandoff(data)
	if err != nil {
		return store.ReplPos{}, err
	}
	f.handoffs.Add(1)
	f.gen.Store(pos.Gen)
	f.confirmed.Store(pos.Offset)
	f.frames.Store(pos.Frames)
	f.primEnd.Store(pos.Offset)
	f.primFr.Store(pos.Frames)
	f.session = resp.Header.Get(hdrSession)
	if f.cfg.OnReset != nil {
		f.cfg.OnReset(rep)
	}
	// serving-reads is sticky: a re-handoff after compaction or an outage
	// does not take reads away — the follower keeps serving (possibly
	// stale, never wrong) while it drains the new backlog.
	if s := f.State(); s != StateServingReads && s != StatePromoted {
		f.setState(StateSyncing)
	}
	return pos, nil
}

// stream long-polls WAL chunks from pos until an error forces a reconnect
// or re-handoff.
func (f *Follower) stream(ctx context.Context, pos store.ReplPos) error {
	gen := pos.Gen
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		q := url.Values{}
		q.Set("gen", strconv.FormatUint(gen, 10))
		q.Set("offset", strconv.FormatInt(f.confirmed.Load(), 10))
		q.Set("max", strconv.Itoa(f.cfg.MaxChunk))
		q.Set("wait", strconv.Itoa(int(f.cfg.Wait/time.Millisecond)))
		if f.session != "" {
			q.Set("session", f.session)
			f.session = ""
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.prefix+"/wal?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := f.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		chunk, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusGone:
			return errGenGone
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("replica: wal read: %s", resp.Status)
		case err != nil:
			// The body died mid-frame; whatever complete prefix arrived is
			// still safe to apply — IngestChunk keeps the torn tail off the
			// confirmed offset and we re-request the rest.
			f.torn.Add(1)
		}
		end, perr := readPos(resp.Header)
		if perr != nil {
			return perr
		}
		f.primEnd.Store(end.Offset)
		f.primFr.Store(end.Frames)

		if len(chunk) > 0 {
			rep, ierr := f.cfg.Store.IngestChunk(end.Epoch, chunk)
			f.confirmed.Add(rep.Bytes)
			f.frames.Add(int64(rep.Frames))
			if rep.Frames > 0 || len(rep.Invalidated) > 0 {
				f.applied.Add(int64(rep.Frames))
				if f.cfg.OnApply != nil {
					f.cfg.OnApply(rep)
				}
			}
			if rep.Bytes < int64(len(chunk)) && ierr == nil {
				f.torn.Add(1)
			}
			switch {
			case errors.Is(ierr, store.ErrCorruptFrame):
				// A bit-flipped frame is never applied; the valid prefix
				// advanced the confirmed offset, so the next read resyncs
				// from exactly the first unconfirmed byte.
				f.corrupt.Add(1)
			case errors.Is(ierr, store.ErrFencedEpoch):
				f.fenced.Add(1)
				return ierr // promoted concurrently; stop following
			case ierr != nil:
				return ierr
			}
			// Ingest may have compacted the local store; that is invisible
			// to the stream — gen here is the PRIMARY's generation.
		}
		if f.confirmed.Load() >= end.Offset && f.State() == StateSyncing {
			f.setState(StateCaughtUp)
			f.setState(StateServingReads)
		}
	}
}

// Promote ends following and seals the store for independent writes: the
// torn stream tail (if any) is truncated exactly like boot-time replay
// truncates a torn WAL, the epoch is bumped past the dead primary's, and
// the state is folded into a fresh snapshot. Returns the new epoch. The
// follower never follows again after promotion.
//
// Promote joins the Start goroutine before touching the store; a Run the
// caller launched directly cannot be joined here, but the epoch bump makes
// that safe — any chunk such a straggler still ingests is fenced.
func (f *Follower) Promote() (uint64, error) {
	f.Close()
	epoch, err := f.cfg.Store.Promote()
	if err != nil {
		return 0, err
	}
	f.setState(StatePromoted)
	return epoch, nil
}

// Start launches Run in a goroutine that Close joins. Start at most once.
func (f *Follower) Start() {
	f.runWG.Add(1)
	go func() {
		defer f.runWG.Done()
		f.Run(context.Background())
	}()
}

// Stop signals Run to return. It never blocks, so it is safe to call more
// than once, before Run ever starts, or from inside Run's own callbacks.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
}

// Close stops the follower and joins the goroutine Start spawned: when it
// returns, no reconnect or long-poll goroutine of this follower is left
// running. Idempotent; a no-op join for a follower that never Started.
func (f *Follower) Close() {
	f.Stop()
	f.runWG.Wait()
}
