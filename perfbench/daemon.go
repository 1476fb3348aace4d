package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	bootTimeout = 30 * time.Second
	stopTimeout = 20 * time.Second
	// tenantQPS switches the per-tenant token buckets on at a rate no
	// workload reaches, so every request pays for the quota check and
	// none is refused.
	tenantQPS = "1e9"
)

// member is one hetpartd process of the cluster under test.
type member struct {
	addr   string // host:port, fixed for the member's lifetime
	store  string // store directory, kept across restarts
	log    string // stdout and stderr of every incarnation
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has been waited for
}

// cluster is the daemons of one set-up: a single daemon, or the members
// of a sharded fabric that forward to each other's plan owners.
type cluster struct {
	pin     []string // command prefix that pins a daemon to its CPUs
	bin     string
	members []*member
	http    *http.Client
}

// pinCommand returns the prefix that confines the daemons to the upper
// half of the CPUs this process may use, and that CPU list; nil when there
// is only one CPU or no taskset. The load generator stays unpinned: held
// to the lower half it became the bottleneck of warm, and its throughput
// spread grew from a twentieth to a fifth between seeds. Unpinned, the scheduler placed daemons and clients
// differently from run to run, and the run figures fell into two clusters
// a fifth apart. Go sizes GOMAXPROCS from the affinity mask, so on two
// CPUs each daemon runs single-core.
func pinCommand() ([]string, string) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, ""
	}
	var cpus []string
	for _, line := range strings.Split(string(data), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, _ := strings.Cut(part, "-")
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err2 != nil {
				b, err2 = a, nil
			}
			if err1 != nil || err2 != nil {
				return nil, ""
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, strconv.Itoa(c))
			}
		}
	}
	taskset, err := exec.LookPath("taskset")
	if len(cpus) < 2 || err != nil {
		return nil, ""
	}
	list := strings.Join(cpus[len(cpus)/2:], ",")
	return []string{taskset, "-c", list}, list
}

// freePort asks the kernel for an unused loopback port. Fabric members
// must know each other's addresses before any of them listens.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newCluster lays out n members under dir without starting them; pin is
// pinCommand's prefix.
func newCluster(bin, dir string, n int, pin []string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cl := &cluster{pin: pin, bin: bin, http: &http.Client{Timeout: bootTimeout}}
	for i := 0; i < n; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		cl.members = append(cl.members, &member{
			addr:  addr,
			store: filepath.Join(dir, "m"+strconv.Itoa(i)),
			log:   filepath.Join(dir, "m"+strconv.Itoa(i)+".log"),
		})
	}
	return cl, nil
}

// start boots every member and returns once all of them answer.
func (cl *cluster) start() error {
	for i, m := range cl.members {
		args := []string{"-dir", m.store, "-addr", m.addr, "-tenant-qps", tenantQPS}
		if len(cl.members) > 1 {
			var peers []string
			for j, o := range cl.members {
				if j != i {
					peers = append(peers, "http://"+o.addr)
				}
			}
			args = append(args, "-fabric-self", "http://"+m.addr, "-peers", strings.Join(peers, ","))
		}
		if err := m.start(cl.pin, cl.bin, args); err != nil {
			return err
		}
	}
	return nil
}

// start runs one incarnation of the member and waits until it has
// replayed its store and publishes its address: the daemon writes the
// address file only once it answers requests.
func (m *member) start(pin []string, bin string, args []string) error {
	addrFile := m.store + ".addr"
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return err
	}
	logf, err := os.OpenFile(m.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	argv := append(append(pin[:len(pin):len(pin)], bin), append(args, "-addr-file", addrFile)...)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Take the daemon down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	m.cmd, m.exited = cmd, make(chan struct{})
	go func(done chan struct{}) {
		cmd.Wait()
		close(done)
	}(m.exited)
	deadline := time.Now().Add(bootTimeout)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			return nil
		}
		select {
		case <-m.exited:
			return fmt.Errorf("hetpartd %s exited while booting:\n%s", m.addr, tail(m.log))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			m.stop()
			return fmt.Errorf("hetpartd %s did not boot within %v:\n%s", m.addr, bootTimeout, tail(m.log))
		}
	}
}

// stop drains the member with SIGTERM (the daemon folds its log into a
// snapshot on the way out), killing it if the drain hangs, and returns
// once the process is gone.
func (m *member) stop() {
	if m.cmd == nil {
		return
	}
	m.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-m.exited:
	case <-time.After(stopTimeout):
		m.cmd.Process.Kill()
		<-m.exited
	}
	m.cmd = nil
}

func (cl *cluster) stop() {
	for _, m := range cl.members {
		m.stop()
	}
	cl.http.CloseIdleConnections()
}

// restart drains every member and boots it again on the same store.
func (cl *cluster) restart() error {
	cl.stop()
	return cl.start()
}

// upload posts every model to every member: each member can compute any
// plan, so each holds every model.
func (cl *cluster) upload(models []*model) error {
	for _, m := range cl.members {
		for _, md := range models {
			resp, err := cl.http.Post("http://"+m.addr+"/v1/models?label="+md.label, "application/json", bytes.NewReader(md.doc))
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("upload %s to %s: HTTP %d: %s", md.label, m.addr, resp.StatusCode, body)
			}
		}
	}
	return nil
}

// statPaths are the /v1/stats counters the per-layer metrics read, as
// dotted JSON paths; a * step sums over every key at that level.
var statPaths = []string{
	"engine.requests", "engine.batches", "engine.avgBatch", "engine.avgLatencyUs",
	"cache.Hits", "cache.Misses", "cache.Shared", "cache.WarmStarts", "cache.Evictions",
	"store.walRecords", "store.groupCommits", "store.groupedRecords",
	"fabric.forwarded", "fabric.remoteHits", "fabric.fallbackLocal",
	"tenants.*.rejected",
}

// stats maps each of statPaths, plus the engine totals queued (requests
// that went through the engine queue) and queuedUs (their summed
// submit→answer time, µs), to its sum over members.
type stats map[string]float64

// snapshot reads /v1/stats of every member.
func (cl *cluster) snapshot() (stats, error) {
	sum := stats{}
	for _, m := range cl.members {
		var doc any
		resp, err := cl.http.Get("http://" + m.addr + "/v1/stats")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("stats from %s: %w", m.addr, err)
		}
		one := stats{}
		for _, p := range statPaths {
			one[p] = lookup(doc, strings.Split(p, "."))
		}
		one["queued"] = one["engine.avgBatch"] * one["engine.batches"]
		one["queuedUs"] = one["engine.avgLatencyUs"] * one["engine.requests"]
		for k, v := range one {
			sum[k] += v
		}
	}
	return sum, nil
}

// lookup follows path through a decoded JSON document; a missing key
// reads as 0.
func lookup(v any, path []string) float64 {
	if len(path) == 0 {
		f, _ := v.(float64)
		return f
	}
	obj, _ := v.(map[string]any)
	return lookup(obj[path[0]], path[1:])
}

// minus returns the counters accumulated between o and s. Averages such
// as engine.avgBatch do not subtract; read them through queued and
// queuedUs.
func (s stats) minus(o stats) stats {
	d := stats{}
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

// cpu returns the CPU time all members have used so far, in seconds.
func (cl *cluster) cpu() (float64, error) {
	var sum float64
	for _, m := range cl.members {
		s, err := cpuSeconds(m.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// cpuSeconds sums the on-CPU time of a process's threads from their
// schedstat files, which count nanoseconds; /proc/<pid>/stat counts
// 10 ms ticks, too coarse for half-second slices. The Go runtime parks
// idle threads rather than ending them, so no time is lost to exits.
func cpuSeconds(pid int) (float64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended after the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// tail returns the end of a log file for error reports.
func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}
