package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
)

// TestMain doubles as the daemon binary for the kill-and-restart test:
// when HETPARTD_HELPER_DIR is set, the test binary re-execs into a real
// hetpartd serving that directory, with every WAL record fsynced so a
// SIGKILL at any moment loses nothing that was answered.
func TestMain(m *testing.M) {
	if dir := os.Getenv("HETPARTD_HELPER_DIR"); dir != "" {
		err := Run(Config{
			Addr:      "127.0.0.1:0",
			Dir:       dir,
			AddrFile:  filepath.Join(dir, "addr"),
			SyncEvery: 1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnDaemon re-execs the test binary as a daemon over dir and waits for
// it to publish its address.
func spawnDaemon(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "HETPARTD_HELPER_DIR="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + string(data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon over %s never published an address", dir)
	return nil, ""
}

// coldCase is one request shape the test replays against the restarted
// daemon and recomputes cold for the bit-identity check.
type coldCase struct {
	n    int64
	algo core.Algorithm
	body []byte
	opts []core.Option
	got  partitionReply // the pre-kill daemon's answer
}

func TestKillAndRestartServesBitIdenticalPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	doc := testClusterDoc(t, 10, 77)
	fns := docFunctions(t, doc)

	cmd, base := spawnDaemon(t, dir)
	if code := postJSON(t, base+"/v1/models?label=lab", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}

	// A mixed workload: three algorithms, options on some requests.
	cases := []*coldCase{
		{n: 400_000, algo: core.AlgoCombined, body: []byte(`{"model":"lab","n":400000}`)},
		{n: 600_000, algo: core.AlgoCombined, body: []byte(`{"model":"lab","n":600000}`)},
		{n: 600_000, algo: core.AlgoBasic, body: []byte(`{"model":"lab","n":600000,"algo":"basic"}`)},
		{n: 800_000, algo: core.AlgoModified, body: []byte(`{"model":"lab","n":800000,"algo":"modified"}`)},
		{n: 500_000, algo: core.AlgoCombined,
			body: []byte(`{"model":"lab","n":500000,"options":{"fineTune":false}}`),
			opts: []core.Option{core.WithoutFineTune()}},
		{n: 900_000, algo: core.AlgoCombined,
			body: []byte(`{"model":"lab","n":900000,"options":{"bisection":"angles","maxSteps":64}}`),
			opts: []core.Option{core.WithBisection(geometry.BisectAngles), core.WithMaxSteps(64)}},
	}
	for _, c := range cases {
		// Twice: the second request passes the doorkeeper, and its answer
		// is durable (tap → WAL → fsync) before the response is sent.
		if code := postJSON(t, base+"/v1/partition", c.body, nil); code != 200 {
			t.Fatalf("first ask HTTP %d for %s", code, c.body)
		}
		if code := postJSON(t, base+"/v1/partition", c.body, &c.got); code != 200 {
			t.Fatalf("second ask HTTP %d for %s", code, c.body)
		}
		if len(c.got.Alloc) != len(fns) {
			t.Fatalf("pre-kill answer malformed: %+v", c.got)
		}
	}

	// Hammer the daemon and SIGKILL it mid-load: some of these requests
	// die with the process, and that must not matter.
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		client := &http.Client{Timeout: 2 * time.Second}
		for i := 0; i < 10_000; i++ {
			body := fmt.Sprintf(`{"model":"lab","n":%d}`, 1_000_000+i*1_000)
			resp, err := client.Post(base+"/v1/partition", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	<-stopped

	// Restart on the same directory: the WAL replays, the cache warms.
	cmd2, base2 := spawnDaemon(t, dir)
	var stats statsReply
	if code := getJSON(t, base2+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats after restart: HTTP %d", code)
	}
	if stats.Store.LoadedFromSnapshot {
		t.Fatalf("SIGKILL cannot have left a snapshot: %+v", stats.Store)
	}
	if stats.Store.ReplayedModels != 1 || stats.Store.ReplayedPlans < len(cases) {
		t.Fatalf("replay too small: %+v", stats.Store)
	}
	if stats.Cache.Size < len(cases) {
		t.Fatalf("cache not warmed from store: %+v", stats.Cache)
	}

	// Every answered key is served as an immediate hit, bit-identical to
	// the pre-kill answer AND to a cold computation.
	for _, c := range cases {
		var again partitionReply
		if code := postJSON(t, base2+"/v1/partition", c.body, &again); code != 200 {
			t.Fatalf("replayed ask HTTP %d for %s", code, c.body)
		}
		if again.Tier != "hit" {
			t.Fatalf("restarted daemon answered %q (want hit) for %s", again.Tier, c.body)
		}
		var cold core.Result
		var err error
		switch c.algo {
		case core.AlgoBasic:
			cold, err = core.Basic(c.n, fns, c.opts...)
		case core.AlgoModified:
			cold, err = core.Modified(c.n, fns, c.opts...)
		default:
			cold, err = core.Combined(c.n, fns, c.opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		// The slope must survive the crash bit-for-bit; the allocation must
		// additionally match a local tangent-bisection computation bit for
		// bit (the served regula-falsi search may end on another slope,
		// never another allocation).
		if again.Slope != c.got.Slope {
			t.Fatalf("slope drift for %s: pre-kill %v, restarted %v",
				c.body, c.got.Slope, again.Slope)
		}
		for i := range cold.Alloc {
			if again.Alloc[i] != c.got.Alloc[i] || again.Alloc[i] != cold.Alloc[i] {
				t.Fatalf("share %d drift for %s: pre-kill %d, restarted %d, cold %d",
					i, c.body, c.got.Alloc[i], again.Alloc[i], cold.Alloc[i])
			}
		}
	}

	// The recovered hit rate shows up in the counters.
	if code := getJSON(t, base2+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Cache.Hits < uint64(len(cases)) {
		t.Fatalf("recovered hit count %d < %d: %+v", stats.Cache.Hits, len(cases), stats.Cache)
	}

	// Graceful drain: SIGTERM folds the WAL into a snapshot and exits 0.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("graceful exit: %v", err)
	}

	// The third boot loads that snapshot and still serves hits.
	cmd3, base3 := spawnDaemon(t, dir)
	if code := getJSON(t, base3+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats after graceful restart: HTTP %d", code)
	}
	if !stats.Store.LoadedFromSnapshot {
		t.Fatalf("graceful shutdown left no snapshot: %+v", stats.Store)
	}
	var again partitionReply
	postJSON(t, base3+"/v1/partition", cases[0].body, &again)
	if again.Tier != "hit" {
		t.Fatalf("snapshot-booted daemon answered %q, want hit", again.Tier)
	}
	cmd3.Process.Signal(syscall.SIGTERM)
	cmd3.Wait()

	// Marshal sanity: the wire bodies the test hand-wrote stay parseable
	// by the daemon's own request type.
	for _, c := range cases {
		var pr partitionRequest
		if err := json.Unmarshal(c.body, &pr); err != nil {
			t.Fatalf("body %s: %v", c.body, err)
		}
	}
}
