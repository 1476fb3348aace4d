// Command perfbench measures the hetpartd partition-serving daemon end to
// end: it boots real daemon processes from a fresh store, uploads seeded
// cluster models, and drives one traffic mix over loopback HTTP with
// keep-alive connections, checking every plan it gets back.
//
//	perfbench -daemon ./hetpartd -workload warm -seed 1 -seconds 20 -trace 0
//
// A run has three parts. Set-up boots the daemons, uploads the models,
// prewarms the workload's hot plans, if it has any, and restarts the
// daemons on their stores, eleven times over. Then the measured seconds
// run in half-second slices: in each, one client sends requests back to
// back (closed loop, one outstanding request) for 40% of the slice, which
// gives the unloaded latency, and four clients do the same for the rest,
// which gives throughput and daemon CPU per plan. Each end-to-end figure
// is scaled to a nominal host speed by a reference timed around its slice
// or set-up (see hostRef), then reported as the trimmed mean over slices,
// or for set-up the median. The last line of standard output
// is a JSON object with the end-to-end metrics, or with -trace 1 the
// per-layer ones: client-side spans of each round trip, single-request
// probes that each add one daemon layer to the last, and the daemon's own
// counters from /v1/stats. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	setupRounds = 11
	loadedConns = 4
	// The measured seconds are cut into slicesPerSecond slices each; a
	// slice runs one client for serialShare of its time, then loadedConns
	// clients for the rest.
	slicesPerSecond = 2
	serialShare     = 0.4
	probeRounds     = 200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "traffic mix: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the models, problem sizes and request order")
		seconds = flag.Int("seconds", 10, "measured seconds, after set-up")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
		bin     = flag.String("daemon", "", "hetpartd binary")
		work    = flag.String("work", ".bench_build", "directory for the daemons' stores and logs")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(name string, seed int64, seconds int, trace bool, bin, work string) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(seed, wl)
	pin, cpus := pinCommand()
	if pin != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemons pinned to CPUs %s\n", cpus)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: daemons not pinned")
	}
	var cl *cluster
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	// Every set-up and every slice is timed between two samples of the host
	// reference, and its figures are scaled by the pair's mean; see hostRef.
	var setups, setupScales, refs []float64
	sampleRef := func() (float64, error) {
		ns, err := hostRef(cpus)
		refs = append(refs, ns)
		return ns, err
	}
	for i := 0; i < setupRounds; i++ {
		if cl != nil {
			cl.stop()
		}
		if cl, err = newCluster(bin, filepath.Join(dir, strconv.Itoa(i)), wl.members, pin); err != nil {
			return nil, err
		}
		before, err := sampleRef()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := b.setup(cl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		after, err := sampleRef()
		if err != nil {
			return nil, err
		}
		setupScales = append(setupScales, 2*refNominalNs/(before+after))
	}

	s0, err := cl.snapshot()
	if err != nil {
		return nil, err
	}
	serialC, err := newClient(cl.members[0].addr, b.newStream(0))
	if err != nil {
		return nil, err
	}
	defer serialC.close()
	loaders := make([]*client, loadedConns)
	for i := range loaders {
		if loaders[i], err = newClient(cl.members[i%len(cl.members)].addr, b.newStream(int64(i+1))); err != nil {
			return nil, err
		}
		defer loaders[i].close()
	}
	var serial, loaded phase
	var fig figures
	clientCPU0 := clientCPU()
	sliceDur := time.Second / slicesPerSecond
	before, err := sampleRef()
	if err != nil {
		return nil, err
	}
	for i := 0; i < seconds*slicesPerSecond; i++ {
		start := time.Now()
		var sp phase
		if err := serialC.drive(start.Add(time.Duration(float64(sliceDur)*serialShare)), trace, &sp); err != nil {
			return nil, err
		}
		cpu0, err := cl.cpu()
		if err != nil {
			return nil, err
		}
		loadStart := time.Now()
		lp, err := driveAll(loaders, start.Add(sliceDur))
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(loadStart).Seconds()
		cpu1, err := cl.cpu()
		if err != nil {
			return nil, err
		}
		after, err := sampleRef()
		if err != nil {
			return nil, err
		}
		fig.add(&sp, lp, elapsed, cpu1-cpu0, 2*refNominalNs/(before+after))
		before = after
		serial.add(&sp)
		loaded.add(lp)
	}
	clientCPUs := clientCPU() - clientCPU0
	s2, err := cl.snapshot()
	if err != nil {
		return nil, err
	}

	res := &result{
		Attempted: serial.attempted + loaded.attempted,
		Failed:    serial.failed + loaded.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = b.wrongPlans+serial.wrong+loaded.wrong == 0 && serial.plans+loaded.plans > 0
	if b.prewarmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d prewarm replies failed their check, the last: %v\n", b.wrongPlans, b.prewarmErr)
	}
	for _, e := range append(serial.errs, loaded.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d slices, %d serial and %d loaded HTTP requests, %d set-ups\n",
		name, seed, len(fig.rps), len(serial.lat), len(loaded.lat), len(setups))
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	setupScaled := make([]float64, len(setups))
	for i, t := range setups {
		setupScaled[i] = t * setupScales[i]
	}
	sc := fig.scaled()
	fmt.Fprintf(os.Stderr, "perfbench: host reference %.1f ns; unscaled: latency_mean_us %.4g, latency_p90_us %.4g, throughput_rps %.6g, cpu_us_per_req %.4g, setup_s %.4g\n",
		trimmedMean(refs), trimmedMean(fig.mean), trimmedMean(fig.p90), trimmedMean(fig.rps), trimmedMean(fig.cpu), median(setups))
	if !trace {
		put("latency_mean_us", "us", trimmedMean(sc.mean))
		put("latency_p90_us", "us", trimmedMean(sc.p90))
		put("throughput_rps", "1/s", trimmedMean(sc.rps))
		put("cpu_us_per_req", "us", trimmedMean(sc.cpu))
		put("setup_s", "s", median(setupScaled))
		return res, nil
	}

	// Per-layer figures are not scaled; host_ref_ns gives the host's
	// speed beside them.
	put("host_ref_ns", "ns", trimmedMean(refs))
	probes, err := b.probe(cl)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		put(name, "us", v)
	}
	for i, name := range spanNames {
		put(name, "us", pct(serial.spans[i], 0.5)/1e3)
	}
	put("loaded_p50_us", "us", pct(loaded.lat, 0.5)/1e3)
	put("loaded_p99_us", "us", pct(loaded.lat, 0.99)/1e3)
	put("daemon_cpu_us_per_req", "us", trimmedMean(fig.cpu))
	put("client_cpu_us_per_req", "us", ratio(clientCPUs*1e6, float64(serial.plans+loaded.plans)))
	put("http_requests", "count", float64(len(serial.lat)+len(loaded.lat)))
	put("plans", "count", float64(serial.plans+loaded.plans))

	d := s2.minus(s0)
	plans := float64(serial.plans + loaded.plans)
	put("engine_queue_us", "us", ratio(d["queuedUs"], d["queued"]))
	put("engine_avg_batch", "count", ratio(d["queued"], d["engine.batches"]))
	hits := d["cache.Hits"] + d["cache.Shared"]
	put("cache_hit_ratio", "ratio", ratio(hits, hits+d["cache.Misses"]))
	put("cache_warm_start_ratio", "ratio", ratio(d["cache.WarmStarts"], d["cache.Misses"]))
	put("cache_evictions_per_plan", "ratio", ratio(d["cache.Evictions"], plans))
	put("wal_records_per_commit", "count", ratio(d["store.groupedRecords"], d["store.groupCommits"]))
	put("fabric_forwarded_share", "ratio", ratio(d["fabric.forwarded"], plans))
	put("fabric_remote_hit_ratio", "ratio", ratio(d["fabric.remoteHits"], d["fabric.forwarded"]))
	return res, nil
}

// setup brings cl from nothing to serving: boot on a fresh store, upload
// the models, prewarm the hot plans, and restart so the daemons serve them
// from the replayed store — the path a crashed or upgraded daemon takes.
func (b *bench) setup(cl *cluster) error {
	b.resetRefs()
	if err := cl.start(); err != nil {
		return err
	}
	if err := cl.upload(b.models); err != nil {
		return err
	}
	if len(b.hot) > 0 {
		if err := b.prewarm(cl.members[0].addr); err != nil {
			return err
		}
	}
	return cl.restart()
}

// prewarm asks for every hot plan three times through the first member,
// in batches: the doorkeeper admits a plan on its second miss, so the
// third ask is a hit and sets the key's reference reply. One request per
// plan made set-up mostly round trips, and its time swung by half between
// runs.
func (b *bench) prewarm(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	s := b.newStream(-1)
	for round := 0; round < 3; round++ {
		for i := 0; i < len(b.hot); i += batchSize {
			s.keys = append(s.keys[:0], b.hot[i:min(i+batchSize, len(b.hot))]...)
			s.frame()
			status, err := c.roundTrip(s.req)
			if err != nil {
				return err
			}
			if status != 200 {
				return fmt.Errorf("prewarm: HTTP %d: %.200s", status, c.body)
			}
			if err := s.check(status, c.body); err != nil {
				b.wrongPlans++
				b.prewarmErr = err
			}
		}
	}
	return nil
}

// spanNames are the client-side spans of one round trip: writing the
// request, waiting for the first response byte (all daemon-side work),
// reading the rest of the response, and checking it.
var spanNames = [...]string{"span_write_us", "span_wait_us", "span_read_us", "span_verify_us"}

// phase accumulates one client's requests.
type phase struct {
	lat       []int64 // round-trip time of each answered HTTP request, ns
	spans     [len(spanNames)][]int64
	attempted int64 // plans asked for
	failed    int64 // plans not answered: transport errors, non-200 replies
	wrong     int64 // plans answered with a reply that fails its check
	plans     int64 // plans answered
	errs      []error
}

const maxErrs = 5

func (ph *phase) note(err error) {
	if len(ph.errs) < maxErrs {
		ph.errs = append(ph.errs, err)
	}
}

func (ph *phase) add(o *phase) {
	ph.lat = append(ph.lat, o.lat...)
	for i := range ph.spans {
		ph.spans[i] = append(ph.spans[i], o.spans[i]...)
	}
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.wrong += o.wrong
	ph.plans += o.plans
	for _, e := range o.errs {
		ph.note(e)
	}
}

// figures collects each slice's end-to-end figures; a run reports their
// trimmed means, so a burst of noise from the rest of the host moves one
// slice, not the result.
type figures struct {
	// Mean and p90 of the serial round-trip time, µs. Not p50: where a
	// workload mixes plan costs, the median falls in a gap between their
	// modes and jumped by a tenth between runs. Not p99: on a shared
	// virtual machine the slowest percent is host preemption, and it
	// doubled from one run to the next.
	mean, p90 []float64
	rps       []float64 // plans answered per second under load
	cpu       []float64 // daemon CPU per plan under load, µs
	scale     []float64 // the slice's refNominalNs / host reference
}

func (f *figures) add(serial, loaded *phase, loadedSeconds, daemonCPU, scale float64) {
	f.mean = append(f.mean, mean(serial.lat)/1e3)
	f.p90 = append(f.p90, pct(serial.lat, 0.9)/1e3)
	f.rps = append(f.rps, float64(loaded.plans)/loadedSeconds)
	f.cpu = append(f.cpu, ratio(daemonCPU*1e6, float64(loaded.plans)))
	f.scale = append(f.scale, scale)
}

// scaled returns the figures as on the nominal host: times multiplied by
// each slice's scale, rates divided by it.
func (f *figures) scaled() figures {
	out := figures{scale: f.scale}
	for i, k := range f.scale {
		out.mean = append(out.mean, f.mean[i]*k)
		out.p90 = append(out.p90, f.p90[i]*k)
		out.rps = append(out.rps, f.rps[i]/k)
		out.cpu = append(out.cpu, f.cpu[i]*k)
	}
	return out
}

// client is one keep-alive connection and the request stream it sends.
type client struct {
	addr string
	c    *conn
	s    *stream
}

func newClient(addr string, s *stream) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, c: c, s: s}, nil
}

func (cl *client) close() { cl.c.close() }

// drive sends the stream's requests back to back (a closed loop: the next
// request goes out when the previous reply is in) until the deadline.
func (cl *client) drive(deadline time.Time, trace bool, ph *phase) error {
	s := cl.s
	for time.Now().Before(deadline) {
		c := cl.c
		s.next()
		plans := int64(len(s.keys))
		ph.attempted += plans
		t0 := time.Now()
		status, err := c.roundTrip(s.req)
		t1 := time.Now()
		if err != nil {
			ph.failed += plans
			ph.note(err)
			c.close()
			if cl.c, err = dial(cl.addr); err != nil {
				return err
			}
			continue
		}
		if err := s.check(status, c.body); err != nil {
			if status != 200 {
				ph.failed += plans
			} else {
				ph.wrong += plans
			}
			ph.note(err)
			continue
		}
		ph.plans += plans
		ph.lat = append(ph.lat, t1.Sub(t0).Nanoseconds())
		if trace {
			ph.spans[0] = append(ph.spans[0], c.sent.Sub(t0).Nanoseconds())
			ph.spans[1] = append(ph.spans[1], c.first.Sub(c.sent).Nanoseconds())
			ph.spans[2] = append(ph.spans[2], t1.Sub(c.first).Nanoseconds())
			ph.spans[3] = append(ph.spans[3], time.Since(t1).Nanoseconds())
		}
	}
	return nil
}

// driveAll runs the clients at once until the deadline.
func driveAll(clients []*client, deadline time.Time) (*phase, error) {
	phs := make([]phase, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.drive(deadline, false, &phs[i])
		}(i, c)
	}
	wg.Wait()
	var all phase
	for i := range phs {
		all.add(&phs[i])
	}
	return &all, errors.Join(errs...)
}

// probe times single requests on an otherwise idle cluster, each probe
// adding one daemon layer to the previous one: the HTTP edge alone (405
// on GET), the wire parser (an empty batch), tenancy and the plan-cache
// hit path, the engine queue and partitioner (a new size, first ask), the
// doorkeeper admission and WAL commit (the same size again), and, in a
// fabric, the forwarding hop (a hit owned by the other member). Probes
// are interleaved round by round, and each reports its median in µs.
func (b *bench) probe(cl *cluster) (map[string]float64, error) {
	c, err := dial(cl.members[0].addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	s := b.newStream(-2)
	frame := func(k key) []byte {
		s.keys = append(s.keys[:0], k)
		s.frame()
		return append([]byte(nil), s.req...)
	}
	call := func(req []byte, k *key) error {
		status, err := c.roundTrip(req)
		if err != nil {
			return err
		}
		if k == nil {
			return nil
		}
		s.keys = append(s.keys[:0], *k)
		err = s.check(status, c.body)
		return err
	}

	// Find a plan the first member owns and, in a fabric, one it
	// forwards. Three asks each leave both cached.
	var local, remote *key
	for j := int64(1); local == nil || (remote == nil && len(cl.members) > 1); j++ {
		if j > 64 {
			return nil, errors.New("no probe plan owned by the first member and one owned by another")
		}
		k := b.freshKey(probeBase - j)
		before, err := cl.snapshot()
		if err != nil {
			return nil, err
		}
		for r := 0; r < 3; r++ {
			if err := call(frame(k), &k); err != nil {
				return nil, err
			}
		}
		after, err := cl.snapshot()
		if err != nil {
			return nil, err
		}
		if after["fabric.forwarded"] > before["fabric.forwarded"] {
			if remote == nil {
				remote = &k
			}
		} else if local == nil {
			local = &k
		}
	}

	type probeSpec struct {
		name string
		req  func(round int) ([]byte, *key)
		want int
	}
	hitKey := *local
	hitReq := frame(hitKey)
	getReq := []byte("GET /v1/partition HTTP/1.1\r\nHost: perfbench\r\n\r\n")
	emptyReq := appendPost(nil, "/v1/partition", []byte(`{"requests":[]}`))
	var fresh key
	specs := []probeSpec{
		{"probe_edge_us", func(int) ([]byte, *key) { return getReq, nil }, 405},
		{"probe_parse_us", func(int) ([]byte, *key) { return emptyReq, nil }, 200},
		{"probe_hit_us", func(int) ([]byte, *key) { return hitReq, &hitKey }, 200},
		{"probe_miss_us", func(r int) ([]byte, *key) {
			fresh = b.freshKey(probeBase + int64(r))
			return frame(fresh), &fresh
		}, 200},
		{"probe_admit_us", func(int) ([]byte, *key) { return frame(fresh), &fresh }, 200},
	}
	if remote != nil {
		fwdKey := *remote
		fwdReq := frame(fwdKey)
		specs = append(specs, probeSpec{"probe_forward_us", func(int) ([]byte, *key) { return fwdReq, &fwdKey }, 200})
	}
	times := make([][]int64, len(specs))
	for r := 0; r < probeRounds; r++ {
		for i, p := range specs {
			req, k := p.req(r)
			start := time.Now()
			status, err := c.roundTrip(req)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if status != p.want {
				return nil, fmt.Errorf("%s: HTTP %d, want %d: %.200s", p.name, status, p.want, c.body)
			}
			if p.name == "probe_parse_us" && !bytes.Equal(c.body, []byte("{\"responses\":[]}\n")) {
				return nil, fmt.Errorf("%s: reply %.200q", p.name, c.body)
			}
			if k != nil {
				s.keys = append(s.keys[:0], *k)
				if err := s.check(status, c.body); err != nil {
					return nil, fmt.Errorf("%s: %w", p.name, err)
				}
			}
			times[i] = append(times[i], elapsed.Nanoseconds())
		}
	}
	out := map[string]float64{"probe_forward_us": 0}
	for i, p := range specs {
		out[p.name] = pct(times[i], 0.5) / 1e3
	}
	return out, nil
}

// clientCPU is this process's user plus system time in seconds.
func clientCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// pct returns the q-quantile of xs (nearest rank), or 0 for no samples.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

func mean(xs []int64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return ratio(sum, float64(len(xs)))
}

// trimmedMean averages xs without its lowest and highest tenth. Not the
// median: the host's vCPUs switch between a fast and a slow speed, a third
// apart, every second or so, and the median of the slices jumped between
// the two modes from run to run, where the mean moves with the share of
// time spent in each. The trim drops bursts of preemption.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
