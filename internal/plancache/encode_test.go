package plancache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/speed"
)

// countingEncoder installs an encoder on c that counts its calls and, while
// checkLocks is set, fails t if any shard lock is held when it runs.
func countingEncoder(t *testing.T, c *Cache, checkLocks *atomic.Bool) *atomic.Int64 {
	var formats atomic.Int64
	c.SetEncoder(func(r core.Result) Encoding {
		if checkLocks.Load() {
			for i := range c.shards {
				if !c.shards[i].mu.TryLock() {
					t.Errorf("a plan was formatted while shard %d's lock was held", i)
					continue
				}
				c.shards[i].mu.Unlock()
			}
		}
		formats.Add(1)
		b := fmt.Appendf(nil, "%v|%v|%+v", r.Alloc, r.Slope, r.Stats)
		return Encoding{Bytes: b, Cut: len(b) / 2}
	})
	return &formats
}

// TestEncodeOncePerResidency counts the encoder's calls. A computed plan is
// formatted once per residency, by the miss that computed it: its
// admission-window ask, its hits and the requests that waited on it format
// nothing. A plan Import, Replace or Offer installs without an encoding is
// formatted on its first hit only, and one a refresh re-keys keeps its
// bytes. No plan is formatted while a shard lock is held.
func TestEncodeOncePerResidency(t *testing.T) {
	fns := refreshCluster(8)
	m := speed.NewModel(fns)
	const n = 40_000 // survives driftProc(fns, 3)
	var checkLocks atomic.Bool
	checkLocks.Store(true)
	c := NewWithConfig(Config{Doorkeeper: true})
	formats := countingEncoder(t, c, &checkLocks)
	var plans []PlanRecord
	c.SetInsertTap(func(r PlanRecord) { plans = append(plans, r) })
	want := func(what string, count int64) {
		t.Helper()
		if got := formats.Swap(0); got != count {
			t.Fatalf("%s formatted %d plans, want %d", what, got, count)
		}
	}
	get := func(c *Cache, m *speed.Model, tier Tier) Encoding {
		t.Helper()
		enc, got, err := c.GetEncoded(core.AlgoCombined, n, m)
		if err != nil || got != tier {
			t.Fatalf("GetEncoded: tier %v, err %v; want tier %v", got, err, tier)
		}
		return enc
	}
	peek := func(c *Cache, m *speed.Model) Encoding {
		t.Helper()
		enc, ok := c.Peek(m, core.AlgoCombined, n)
		if !ok {
			t.Fatal("Peek missed a resident plan")
		}
		return enc
	}
	same := func(what string, got, want Encoding) {
		t.Helper()
		if !bytes.Equal(got.Bytes, want.Bytes) || got.Cut != want.Cut {
			t.Fatalf("%s answered %q cut at %d, want %q cut at %d", what, got.Bytes, got.Cut, want.Bytes, want.Cut)
		}
	}

	first := get(c, m, TierMiss)
	want("a miss", 1)
	if _, ok := c.Peek(m, core.AlgoCombined, n); ok {
		t.Fatal("a plan waiting in the admission window is resident")
	}
	same("the second ask", get(c, m, TierHit), first)
	want("the second ask", 0)
	for i := 0; i < 3; i++ {
		same("a Peek hit", peek(c, m), first)
		same("a GetEncoded hit", get(c, m, TierHit), first)
		if _, tier, err := c.GetTier(core.AlgoCombined, n, m); err != nil || tier != TierHit {
			t.Fatalf("GetTier: tier %v, err %v; want a hit", tier, err)
		}
	}
	want("hits", 0)

	// A new residency: the doorkeeper remembers the key, so the miss is
	// admitted at once, and formatted once more.
	c.InvalidateFingerprint(m.Fingerprint())
	same("a new residency's miss", get(c, m, TierMiss), first)
	same("its hit", peek(c, m), first)
	want("a new residency", 1)

	// A refresh re-keys the plan with its bytes.
	mNew := speed.NewModel(driftProc(fns, 3))
	if kept, _ := c.Refresh(m, mNew); kept != 1 {
		t.Fatalf("Refresh kept %d plans, want 1", kept)
	}
	same("a re-keyed plan", peek(c, mNew), first)
	same("a re-keyed plan", get(c, mNew, TierHit), first)
	want("a refresh and its hits", 0)

	// Imported and replaced plans are formatted on their first hit.
	installs := map[string]func(*Cache){
		"Import":  func(c *Cache) { c.Import(plans[:1]) },
		"Replace": func(c *Cache) { c.Replace(plans[:1]) },
		"Offer": func(c *Cache) {
			_, r := plans[0].entry()
			c.Offer(m, core.AlgoCombined, n, r, Encoding{})
			c.Offer(m, core.AlgoCombined, n, r, Encoding{})
		},
	}
	for name, install := range installs {
		fresh := NewWithConfig(Config{Doorkeeper: true})
		formats = countingEncoder(t, fresh, &checkLocks)
		install(fresh)
		want(name, 0)
		same(name+"'s first hit", peek(fresh, m), first)
		want(name+"'s first hit", 1)
		same(name+"'s later hits", peek(fresh, m), first)
		same(name+"'s later hits", get(fresh, m, TierHit), first)
		want(name+"'s later hits", 0)
	}
	// An offer that brings its encoding keeps it.
	fresh := NewWithConfig(Config{Doorkeeper: true})
	formats = countingEncoder(t, fresh, &checkLocks)
	_, r := plans[0].entry()
	offered := Encoding{Bytes: []byte("offered"), Cut: 3}
	fresh.Offer(m, core.AlgoCombined, n, r, offered)
	fresh.Offer(m, core.AlgoCombined, n, r, offered)
	same("an offered encoding", peek(fresh, m), offered)
	want("an offer with its encoding", 0)

	// Requests that wait on a computation share its one encoding. Other
	// asks may hold a shard lock while this one formats.
	checkLocks.Store(false)
	g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	gated := testCluster(8, 37)
	for i, f := range gated {
		gated[i] = gatedFn{rayFunction: f.(rayFunction), g: g}
	}
	gm := speed.NewModel(gated)
	k := key{model: gm.Fingerprint(), n: n, algo: core.AlgoCombined, opts: servedKey}
	sh := &c.shards[k.hash()&(numShards-1)]
	formats = countingEncoder(t, c, &checkLocks)
	g.armed.Store(true)
	const asks = 4
	encs := make([]Encoding, asks)
	tiers := make([]Tier, asks)
	var wg sync.WaitGroup
	ask := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			encs[i], tiers[i], _ = c.GetEncoded(core.AlgoCombined, n, gm)
		}()
	}
	ask(0)
	<-g.entered
	for i := 1; i < asks; i++ {
		ask(i)
	}
	for joined := false; !joined; {
		runtime.Gosched()
		sh.mu.Lock()
		cl := sh.inflight[k]
		joined = cl != nil && cl.done != nil
		sh.mu.Unlock()
	}
	close(g.open)
	wg.Wait()
	shared := 0
	for i := range encs {
		if tiers[i] == TierShared {
			shared++
		}
		same("a shared answer", encs[i], encs[0])
	}
	if shared == 0 {
		t.Fatal("no request joined the computation")
	}
	want("a computation and its waiters", 1)
}

// TestEncodingsOutliveEntryReuse fills a one-plan-per-shard cache far past
// its capacity, so evicted entry structs are reused: every encoding a
// request was answered with keeps its bytes, and every resident plan
// answers its own.
func TestEncodingsOutliveEntryReuse(t *testing.T) {
	fns := testCluster(6, 71)
	m := speed.NewModel(fns)
	c := NewWithConfig(Config{Capacity: numShards})
	c.SetEncoder(func(r core.Result) Encoding {
		b := fmt.Appendf(nil, "%v|%v|%+v", r.Alloc, r.Slope, r.Stats)
		return Encoding{Bytes: b, Cut: len(b) / 2}
	})
	answered := map[int64]Encoding{}
	kept := map[int64][]byte{}
	for i := int64(0); i < 4*numShards; i++ {
		n := 1_000_000 + 7_919*i
		enc, tier, err := c.GetEncoded(core.AlgoCombined, n, m)
		if err != nil || tier != TierMiss {
			t.Fatalf("n=%d: tier %v, err %v; want a miss", n, tier, err)
		}
		answered[n], kept[n] = enc, bytes.Clone(enc.Bytes)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction: %+v", st)
	}
	resident := 0
	for n, enc := range answered {
		if !bytes.Equal(enc.Bytes, kept[n]) {
			t.Fatalf("n=%d: an answered encoding was rewritten to %q, was %q", n, enc.Bytes, kept[n])
		}
		if got, ok := c.Peek(m, core.AlgoCombined, n); ok {
			resident++
			if !bytes.Equal(got.Bytes, kept[n]) {
				t.Fatalf("n=%d: resident plan answers %q, want %q", n, got.Bytes, kept[n])
			}
		}
	}
	if resident == 0 {
		t.Fatal("no plan resident")
	}
}

// TestDoorkeeperEncodingsUnderConcurrency hammers a cache with the
// admission policy on from many goroutines — misses, window admissions,
// shared waiters, hits and first hits of installed plans — while another
// imports, replaces, refreshes and invalidates: every encoding handed out
// is its own plan's. Run with -race.
func TestDoorkeeperEncodingsUnderConcurrency(t *testing.T) {
	fns := refreshCluster(8)
	models := []*speed.Model{speed.NewModel(fns), speed.NewModel(driftProc(fns, 3))}
	sizes := []int64{40_000, 50_000, 60_000, 70_000, 900_000_000}
	want := map[uint64]map[int64]string{}
	for _, m := range models {
		want[m.Fingerprint()] = map[int64]string{}
		for _, n := range sizes {
			res, err := New(0).Get(core.AlgoCombined, n, m)
			if err != nil {
				t.Fatal(err)
			}
			want[m.Fingerprint()][n] = fmt.Sprint(res.Alloc)
		}
	}
	c := NewWithConfig(Config{Capacity: 32, Doorkeeper: true})
	c.SetEncoder(func(r core.Result) Encoding { return Encoding{Bytes: fmt.Append(nil, r.Alloc)} })
	var mu sync.Mutex
	var plans []PlanRecord
	c.SetInsertTap(func(r PlanRecord) {
		mu.Lock()
		plans = append(plans, r)
		mu.Unlock()
	})

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			snapshot := append([]PlanRecord(nil), plans...)
			mu.Unlock()
			switch i % 4 {
			case 0:
				c.Import(snapshot)
			case 1:
				c.Replace(snapshot)
			case 2:
				c.Refresh(models[i/4%2], models[1-i/4%2])
			default:
				c.InvalidateFingerprint(models[i/4%2].Fingerprint())
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint32(g + 1)
			for i := 0; i < 400; i++ {
				rng = rng*1664525 + 1013904223
				m := models[rng>>8%2]
				n := sizes[rng>>16%uint32(len(sizes))]
				var enc Encoding
				var ok bool
				if rng%3 == 0 {
					enc, ok = c.Peek(m, core.AlgoCombined, n)
				} else {
					var err error
					enc, _, err = c.GetEncoded(core.AlgoCombined, n, m)
					ok = err == nil
				}
				if ok && string(enc.Bytes) != want[m.Fingerprint()][n] {
					t.Errorf("n=%d answered %q, want %q", n, enc.Bytes, want[m.Fingerprint()][n])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}
