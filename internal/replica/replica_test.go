package replica

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/faults"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
	"heteropart/internal/store"
)

// testModel builds a deterministic heterogeneous cluster.
func testModel(p int, seed uint32) []speed.Function {
	fns := make([]speed.Function, p)
	s := seed
	for i := range fns {
		s = s*1664525 + 1013904223
		peak := 1e7 * (1 + float64(s%900)/100)
		fns[i] = speed.MustConstant(peak, 2e9)
	}
	return fns
}

// appendPlans computes and logs real plans, as a daemon's insert tap would.
func appendPlans(t *testing.T, st *store.Store, fp uint64, fns []speed.Function, sizes ...int64) {
	t.Helper()
	for _, n := range sizes {
		res, err := core.Combined(n, fns)
		if err != nil {
			t.Fatal(err)
		}
		err = st.AppendPlan(plancache.PlanRecord{
			Model: fp, N: n, Algo: core.AlgoCombined, OptsKey: core.OptionsKey(),
			Slope: res.Slope, Alloc: res.Alloc, Stats: res.Stats,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func planDigest(plans []plancache.PlanRecord) string {
	keys := make([]string, len(plans))
	for i, r := range plans {
		keys[i] = fmt.Sprintf("%d|%d|%d|%d|%x|%v|%+v",
			r.Model, r.N, r.Algo, r.OptsKey, math.Float64bits(r.Slope), r.Alloc, r.Stats)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// pair is one primary (store + shipper + HTTP server) and one follower.
type pair struct {
	prim  *store.Store
	fp    uint64
	fns   []speed.Function
	srv   *httptest.Server
	fst   *store.Store
	f     *Follower
	runWG sync.WaitGroup
}

// newPair builds a seeded primary behind the daemon's URL layout and an
// idle follower pointed at base (the server's URL unless overridden for a
// proxy in between).
func newPair(t *testing.T, seed uint32, base string, fcfg Config) *pair {
	t.Helper()
	p := &pair{}
	p.prim = mustOpen(t, t.TempDir(), store.Options{})
	p.fns = testModel(5, seed)
	m := speed.NewModel(p.fns)
	p.fp = m.Fingerprint()
	_, err := p.prim.PutModel("cluster", m)
	if err != nil {
		t.Fatal(err)
	}
	appendPlans(t, p.prim, p.fp, p.fns, 1e6, 2e6, 3e6)

	sh := NewShipper(p.prim, 0)
	mux := http.NewServeMux()
	mux.Handle("/v1/replication/", http.StripPrefix("/v1/replication", sh.Handler()))
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)

	p.fst = mustOpen(t, t.TempDir(), store.Options{})
	if base == "" {
		base = p.srv.URL
	}
	fcfg.Primary = base
	fcfg.Store = p.fst
	if fcfg.Wait <= 0 {
		fcfg.Wait = 100 * time.Millisecond
	}
	if fcfg.BackoffBase <= 0 {
		fcfg.BackoffBase = 5 * time.Millisecond
	}
	p.f, err = NewFollower(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustOpen(t *testing.T, dir string, o store.Options) *store.Store {
	t.Helper()
	o.Dir = dir
	s, err := store.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func (p *pair) start(t *testing.T) {
	t.Helper()
	p.runWG.Add(1)
	go func() {
		defer p.runWG.Done()
		p.f.Run(context.Background())
	}()
	t.Cleanup(func() {
		p.f.Stop()
		p.runWG.Wait()
	})
}

// waitFor polls cond with a deadline; replication is asynchronous by
// design, so tests wait on observable state, never on sleeps alone.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (p *pair) converged() bool {
	return planDigest(p.prim.Plans()) == planDigest(p.fst.Plans())
}

func TestFollowerSyncsServesAndTracksLiveAppends(t *testing.T) {
	var mu sync.Mutex
	var applied []store.Replicated
	var states []State
	p := newPair(t, 1, "", Config{
		OnApply: func(r store.Replicated) { mu.Lock(); applied = append(applied, r); mu.Unlock() },
		OnState: func(s State) { mu.Lock(); states = append(states, s); mu.Unlock() },
	})
	p.start(t)

	waitFor(t, "serving-reads", func() bool { return p.f.State() == StateServingReads })
	if !p.converged() {
		t.Fatal("caught-up follower diverged from primary")
	}
	if _, ok := p.fst.Model(p.fp); !ok {
		t.Fatal("model missing on follower")
	}

	// Live appends stream over without another handoff.
	appendPlans(t, p.prim, p.fp, p.fns, 4e6, 5e6)
	waitFor(t, "live appends to mirror", p.converged)
	st := p.f.Status()
	if st.Handoffs != 1 {
		t.Fatalf("%d handoffs, want 1 (live frames must stream, not re-handoff)", st.Handoffs)
	}
	if st.LagBytes != 0 || st.LagFrames != 0 {
		t.Fatalf("converged follower reports lag %d bytes / %d frames", st.LagBytes, st.LagFrames)
	}
	mu.Lock()
	defer mu.Unlock()
	var gotPlans int
	for _, r := range applied {
		gotPlans += len(r.Plans)
	}
	if gotPlans != 2 {
		t.Fatalf("OnApply saw %d plans, want 2", gotPlans)
	}
	// The state machine moved through its stations in order (the follower
	// is born syncing — the zero state — so the observable transitions
	// start at caught-up).
	want := []State{StateCaughtUp, StateServingReads}
	if len(states) < 2 || states[0] != want[0] || states[1] != want[1] {
		t.Fatalf("state transitions %v, want prefix %v", states, want)
	}
}

func TestFollowerResyncsAfterPrimaryCompaction(t *testing.T) {
	p := newPair(t, 2, "", Config{})
	p.start(t)
	waitFor(t, "initial sync", func() bool { return p.f.State() == StateServingReads })

	// Compaction moves the primary's generation: the follower's next read
	// answers 410 and it re-handoffs — no divergence, one more handoff.
	if err := p.prim.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendPlans(t, p.prim, p.fp, p.fns, 6e6)
	waitFor(t, "resync after compaction", func() bool {
		return p.f.Status().Resyncs >= 1 && p.converged()
	})
	if p.f.State() != StateServingReads {
		t.Fatalf("state %v after resync, want serving-reads (sticky)", p.f.State())
	}
}

func TestPromoteSealsAndFencesZombieFrames(t *testing.T) {
	p := newPair(t, 3, "", Config{})
	p.start(t)
	waitFor(t, "initial sync", func() bool { return p.f.State() == StateServingReads })

	// The primary "dies" (server down) with frames the follower never saw.
	p.srv.Close()
	appendPlans(t, p.prim, p.fp, p.fns, 7e6)

	epoch, err := p.f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch %d, want 2", epoch)
	}
	if p.f.State() != StatePromoted {
		t.Fatalf("state %v, want promoted", p.f.State())
	}
	// The new primary accepts its own writes...
	appendPlans(t, p.fst, p.fp, p.fns, 8e6)
	// ...and the zombie's late frames are fenced at the store: pull the
	// bytes the dead primary wrote and try to ingest them.
	zpos := p.prim.ReplicationPos()
	chunk, _, err := p.prim.ReadWALChunk(zpos.Gen, 0, int(zpos.Offset))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.fst.IngestChunk(1, chunk); !errors.Is(err, store.ErrFencedEpoch) {
		t.Fatalf("zombie frames: got %v, want ErrFencedEpoch", err)
	}
}

// TestReconnectBackoffAvoidsSupervisorSchedule pins the satellite
// requirement: the follower's reconnect pauses come from the same
// JitterBackoff as the supervisor's restart pauses, but from a disjoint
// key space (hash with the top bit forced vs. seed^worker-index), so a
// replica reconnecting while the supervisor restarts workers never wakes
// on the supervisor's schedule.
func TestReconnectBackoffAvoidsSupervisorSchedule(t *testing.T) {
	base := 100 * time.Millisecond
	followerKey := BackoffKey("http://127.0.0.1:7411")
	if followerKey>>63 != 1 {
		t.Fatalf("follower key 0x%x must have the top bit set", followerKey)
	}
	// Supervisor keys across realistic seeds and worker counts.
	for seed := uint64(0); seed < 64; seed++ {
		for worker := uint64(0); worker < 32; worker++ {
			supKey := seed ^ worker
			if supKey == followerKey {
				t.Fatalf("key collision at seed=%d worker=%d", seed, worker)
			}
			for attempt := 0; attempt < 8; attempt++ {
				fp := faults.JitterBackoff(base, attempt, followerKey)
				sp := faults.JitterBackoff(base, attempt, supKey)
				if fp == sp {
					t.Fatalf("pause collision: attempt %d, seed %d, worker %d (both %v)",
						attempt, seed, worker, fp)
				}
			}
		}
	}
	// And the schedule is deterministic: same key, same pauses.
	for attempt := 0; attempt < 8; attempt++ {
		a := faults.JitterBackoff(base, attempt, followerKey)
		b := faults.JitterBackoff(base, attempt, followerKey)
		if a != b {
			t.Fatalf("non-deterministic backoff at attempt %d", attempt)
		}
	}
}

func TestFollowerSurvivesLinkDownPlan(t *testing.T) {
	// The outage schedule comes from the faults DSL, the same plans the
	// measurement harness replays: down 150ms at t=100ms, again 100ms at
	// t=400ms.
	plan, err := faults.ParseSpecs([]string{
		"link@t=0.1s,for=0.15s",
		"link@t=0.4s,for=0.1s",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	p := newPair(t, 4, "", Config{})     // base fixed up below, after the proxy exists
	proxy := newFlakyProxy(t, p.srv.URL) // follower → proxy → primary
	f, err := NewFollower(Config{
		Primary:     proxy.URL(),
		Store:       p.fst,
		Wait:        50 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.f = f
	p.start(t)
	waitFor(t, "initial sync", func() bool { return f.State() == StateServingReads })

	// Drive the outage windows while the primary keeps writing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		sizes := int64(10e6)
		for _, w := range plan.LinkDowns() {
			time.Sleep(time.Until(start.Add(time.Duration(w[0] * float64(time.Second)))))
			proxy.setDown(true)
			appendPlans(t, p.prim, p.fp, p.fns, sizes, sizes+1e6) // frames the follower misses live
			sizes += 2e6
			time.Sleep(time.Until(start.Add(time.Duration(w[1] * float64(time.Second)))))
			proxy.setDown(false)
		}
	}()
	<-done

	waitFor(t, "convergence after link recovery", p.converged)
	st := f.Status()
	if st.Reconnects == 0 {
		t.Fatal("link-down plan produced no reconnects — the proxy never dropped?")
	}
	if f.State() != StateServingReads {
		t.Fatalf("state %v after recovery, want serving-reads", f.State())
	}
	// Reads stayed safe throughout: nothing quarantined, nothing corrupt.
	if st.Corrupt != 0 {
		t.Fatalf("%d corrupt chunks during clean link-down", st.Corrupt)
	}
}
