package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// perfbenchDoc builds a clusterio document shaped like perfbench's models:
// p processors, each flat and then falling past a paging point to 2 % of
// its peak, with knots 8× apart from 1e3 and one at 2e9.
func perfbenchDoc(t *testing.T, p int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var doc clusterio.Cluster
	for j := 0; j < p; j++ {
		peak, paging := 1e7*(1+9*rng.Float64()), 1e7*(1+49*rng.Float64())
		speedAt := func(x float64) speed.Point {
			r := x / paging
			return speed.Point{X: x, Y: peak * (0.02 + 0.98/(1+r*r))}
		}
		var pts []speed.Point
		for x := 1e3; x < 2e9/4; x *= 8 {
			pts = append(pts, speedAt(x))
		}
		pts = append(pts, speedAt(2e9))
		doc.Processors = append(doc.Processors, clusterio.Processor{Name: "p" + strconv.Itoa(j), Points: pts})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// batchReply is a batch answer as encoding/json encodes it.
type batchReply struct {
	Responses []partitionReply `json:"responses"`
}

// checkAnswer requires body, the answer to a single ask or a batch for
// the plans want, to be byte for byte what appendReply and encoding/json
// make of those plans at the tiers body names. It returns the tiers.
func checkAnswer(t *testing.T, what string, body []byte, batch bool, want ...core.Result) []string {
	t.Helper()
	var got batchReply
	var err error
	if batch {
		err = json.Unmarshal(body, &got)
	} else {
		got.Responses = make([]partitionReply, 1)
		err = json.Unmarshal(body, &got.Responses[0])
	}
	if err != nil || len(got.Responses) != len(want) {
		t.Fatalf("%s: answer %.200q holds %d plans (%v), want %d", what, body, len(got.Responses), err, len(want))
	}
	ref := batchReply{Responses: make([]partitionReply, len(want))}
	tiers := make([]string, len(want))
	var enc []byte
	for i, res := range want {
		tiers[i] = got.Responses[i].Tier
		ref.Responses[i] = partitionReply{Alloc: res.Alloc, Slope: res.Slope, Tier: tiers[i], Stats: res.Stats}
		if i > 0 {
			enc = append(enc, ',')
		}
		enc = appendReply(enc, res.Alloc, res.Slope, tiers[i], &res.Stats, "")
	}
	var golden bytes.Buffer
	if batch {
		enc = append(append([]byte(`{"responses":[`), enc...), `]}`...)
		err = json.NewEncoder(&golden).Encode(ref)
	} else {
		err = json.NewEncoder(&golden).Encode(ref.Responses[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if !bytes.Equal(body, enc) || !bytes.Equal(body, golden.Bytes()) {
		t.Fatalf("%s answered\n%s\nwant (appendReply)\n%s\nwant (encoding/json)\n%s", what, body, enc, golden.Bytes())
	}
	return tiers
}

// askBody is a single ask for n, or a batch asking for every size in ns.
func askBody(label string, batch bool, ns ...int64) []byte {
	var b strings.Builder
	if batch {
		b.WriteString(`{"requests":[`)
	}
	for i, n := range ns {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"model":%q,"n":%d}`, label, n)
	}
	if batch {
		b.WriteString(`]}`)
	}
	return []byte(b.String())
}

// answerRig asks one model's plans of daemons and checks each answer
// against the plan a fresh cache computes on the model the rig was built
// with.
type answerRig struct {
	t     *testing.T
	label string
	doc   []byte
	m     *speed.Model
	next  int64
	plans map[int64]core.Result
}

// fresh returns a size no ask has named yet.
func (r *answerRig) fresh() int64 {
	r.next += 1_000
	return r.next
}

func (r *answerRig) plan(n int64) core.Result {
	r.t.Helper()
	res, ok := r.plans[n]
	if !ok {
		var err error
		if res, err = plancache.New(0).Get(core.AlgoCombined, n, r.m); err != nil {
			r.t.Fatal(err)
		}
		r.plans[n] = res
	}
	return res
}

// ask posts an ask for ns to base and checks the answer; it returns the
// tiers, which must be want's when want is not empty.
func (r *answerRig) ask(what, base string, batch bool, want []string, ns ...int64) []string {
	r.t.Helper()
	code, body, _ := postRawHdr(r.t, base+"/v1/partition", askBody(r.label, batch, ns...), nil)
	if code != 200 {
		r.t.Fatalf("%s: HTTP %d: %.200s", what, code, body)
	}
	plans := make([]core.Result, len(ns))
	for i, n := range ns {
		plans[i] = r.plan(n)
	}
	tiers := checkAnswer(r.t, what, body, batch, plans...)
	if want != nil && strings.Join(tiers, ",") != strings.Join(want, ",") {
		r.t.Fatalf("%s: tiers %v, want %v", what, tiers, want)
	}
	return tiers
}

func (r *answerRig) upload(base string) {
	r.t.Helper()
	if code := postJSON(r.t, base+"/v1/models?label="+r.label, r.doc, nil); code != 200 {
		r.t.Fatalf("upload %s to %s: HTTP %d", r.label, base, code)
	}
}

// TestEveryAnswerOfAPlanIsItsBytes asks for plans every way the daemon
// answers one — a miss, its admission-window hit, an LRU hit, a request
// waiting on another's computation, an edge hit on a plan a forwarded
// answer left behind (Offer), a plan replayed after a restart, one
// re-keyed by a delta refresh, one installed by Replace after a snapshot
// handoff, and one whose cache entry reuses an evicted entry — as single
// asks and in batches, on an 8- and a 1080-processor perfbench-shaped
// model. Every answer must be byte for byte appendReply's, and
// encoding/json's, encoding of the plan.
func TestEveryAnswerOfAPlanIsItsBytes(t *testing.T) {
	for _, tc := range []struct {
		label string
		p     int
		n     int64
	}{{"t0/p8", 8, 5_000_000}, {"t1/p1080", 1080, 1_000_000_000}} {
		t.Run(tc.label, func(t *testing.T) {
			doc := perfbenchDoc(t, tc.p, int64(tc.p))
			r := &answerRig{t: t, label: tc.label, doc: doc, m: speed.NewModel(docFunctions(t, doc)), next: tc.n, plans: map[int64]core.Result{}}
			hit := []string{"hit"}
			dir := t.TempDir()
			d, base := startDaemon(t, Config{Dir: dir})
			r.upload(base)
			admitted := map[bool][]int64{}
			for _, batch := range []bool{false, true} {
				mode := map[bool]string{false: "single", true: "batch"}[batch]
				n := r.fresh()
				r.ask(mode+" miss", base, batch, []string{"miss"}, n)
				r.ask(mode+" window hit", base, batch, hit, n)
				r.ask(mode+" LRU hit", base, batch, hit, n)

				// Admitted here, answered after a restart, a Replace and a
				// refresh.
				for i := 0; i < 3; i++ {
					n := r.fresh()
					r.ask(mode+" admission", base, batch, []string{"miss"}, n)
					r.ask(mode+" admission", base, batch, hit, n)
					admitted[batch] = append(admitted[batch], n)
				}
			}

			// Asks joining one computation: the encoder holds the single
			// that computes a fresh plan while a batch naming the plan four
			// times and two more singles reach the cache, until a batch
			// element and a single each waited on the computation.
			tenant, _ := fabric.TenantSpan([]byte(r.label))
			requests := &d.tenancy.Stats(tenant).Requests
			shared := map[bool]bool{}
			for try := 0; try < 50 && !(shared[false] && shared[true]); try++ {
				n := r.fresh()
				entered, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				d.cache.SetEncoder(func(res core.Result) plancache.Encoding {
					once.Do(func() { close(entered); <-release })
					return encodePlan(res)
				})
				bodies := make([][]byte, 4) // a batch, then singles
				var wg sync.WaitGroup
				ask := func(i int) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ns := []int64{n}
						if i == 0 {
							ns = []int64{n, n, n, n}
						}
						resp, err := http.Post(base+"/v1/partition", "application/json", bytes.NewReader(askBody(r.label, i == 0, ns...)))
						if err != nil {
							t.Error(err)
							return
						}
						defer resp.Body.Close()
						bodies[i], _ = io.ReadAll(resp.Body)
					}()
				}
				ask(1)
				<-entered
				before := requests.Load()
				for _, i := range []int{0, 2, 3} {
					ask(i)
				}
				for deadline := time.Now().Add(5 * time.Second); requests.Load() < before+6 && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
				close(release)
				wg.Wait()
				p := r.plan(n)
				for i, body := range bodies {
					want := []core.Result{p}
					if i == 0 {
						want = []core.Result{p, p, p, p}
					}
					tiers := checkAnswer(t, "asks joining a computation", body, i == 0, want...)
					shared[i == 0] = shared[i == 0] || strings.Contains(strings.Join(tiers, ","), "shared")
				}
			}
			d.cache.SetEncoder(encodePlan)
			if !shared[false] || !shared[true] {
				t.Fatalf("in 50 tries, no single (%v) or no batch element (%v) waited on another's computation", shared[false], shared[true])
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			d, base = startDaemon(t, Config{Dir: dir})
			for batch, ns := range admitted {
				r.ask("replayed after a restart", base, batch, hit, ns[0])
			}
			d.mirrorReset()
			for batch, ns := range admitted {
				r.ask("installed by Replace", base, batch, hit, ns[1])
			}
			var rr refreshReply
			if code := postJSON(t, base+"/v1/models/"+r.label+"/refresh", refreshBody(t, 0, driftedProcessor(t, doc, 0)), &rr); code != 200 || !rr.Changed {
				t.Fatalf("refresh: HTTP %d %+v", code, rr)
			}
			for batch, ns := range admitted {
				// The label names the refreshed model now; the kept plan is
				// the old model's, which r.plan computed.
				r.ask("re-keyed by a refresh", base, batch, hit, ns[2])
			}

			// An edge hit: the edge forwards its first asks to the owner,
			// keeps the owner's hit the second time it relays one, and then
			// answers from its own cache — alone, or in a batch that also
			// names a plan the edge owns, which the edge serves itself.
			daemons, bases := startFabricCluster(t, 2, Config{})
			r.upload(bases[0])
			r.upload(bases[1])
			ef := daemons[1].Fabric()
			remote := ownedN(t, ef, r.label, bases[0], r.fresh())
			local := ownedN(t, ef, r.label, bases[1], r.fresh())
			r.next = max(remote, local)
			r.ask("relayed miss", bases[1], false, []string{"miss"}, remote)
			r.ask("relayed hit", bases[1], false, hit, remote)
			r.ask("relayed hit", bases[1], false, hit, remote)
			r.ask("edge hit", bases[1], false, hit, remote)
			r.ask("edge hit", bases[1], true, []string{"hit", "miss"}, remote, local)
			if eh := ef.EdgeHits.Load(); eh != 1 {
				t.Fatalf("the edge answered %d single asks from its cache, want 1", eh)
			}

			// A one-plan-per-shard cache: most admissions evict, and the
			// admitted plan takes the evicted entry's struct.
			d, base = startDaemon(t, Config{Dir: t.TempDir(), CacheCapacity: 16})
			r.upload(base)
			for _, batch := range []bool{false, true} {
				for i := 0; i < 20; i++ {
					n := r.fresh()
					r.ask("reused entry", base, batch, []string{"miss"}, n)
					r.ask("reused entry", base, batch, hit, n)
					r.ask("reused entry", base, batch, hit, n)
				}
			}
			if st := d.cache.Stats(); st.Evictions == 0 {
				t.Fatalf("no entry was evicted: %+v", st)
			}
		})
	}
}
