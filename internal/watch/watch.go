// Package watch is the self-healing layer of the replicated partition
// store: a failure detector plus promotion coordinator that runs inside
// every follower daemon, so a dead primary is replaced without a human in
// the loop.
//
// Detection is evidence-based, not event-based: the detector probes the
// primary's /healthz on a jittered, deadline-bounded schedule (the same
// faults.JitterBackoff the executor supervisor and the replica reconnect
// path use, on a disjoint key) and accrues consecutive-miss evidence; one
// dropped packet never triggers an election, SuspectAfter consecutive
// deadline misses do.
//
// The election is deterministic and leaderless. While suspected, each
// follower gathers (epoch, gen, offset) positions from its peers over
// /v1/replication/peer and applies one total order — epoch desc, gen
// desc, offset desc, ID asc — to the caught-up candidates. Exactly one
// follower finds itself at the top and self-promotes; the rest re-follow
// the winner as soon as it reports itself primary. The order is sound
// because a higher generation's snapshot contains everything a lower
// generation's stream could have delivered (compaction folds the full
// committed state), and split-brain is impossible regardless of what the
// detector does: promotion bumps the store epoch, so the frames of a
// zombie primary — or of a loser that promoted by mistake — are refused
// at every store with ErrFencedEpoch. The detector decides *liveness*
// (how fast the cluster heals); *safety* never rests on it.
//
// Two guards keep false elections cheap:
//
//   - stand-down: if any reachable peer watching the same primary still
//     sees it healthy, the round aborts — an asymmetrically partitioned
//     follower defers to the majority view instead of promoting behind a
//     broken link.
//   - quorum: a round needs responses from a majority of the membership
//     ({self} ∪ peers); a minority island never elects.
package watch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"heteropart/internal/faults"
)

// PeerInfo is what one cluster member reports about itself on
// /v1/replication/peer: enough to rank it in an election.
type PeerInfo struct {
	ID    string `json:"id"`
	Role  string `json:"role"`  // "primary" or "replica"
	State string `json:"state"` // follower lifecycle state, informational
	// Primary is the upstream URL this member follows ("" for a primary).
	Primary string `json:"primary,omitempty"`
	// Epoch/Gen/Offset order candidates; Frames and LagBytes are
	// informational.
	Epoch    uint64 `json:"epoch"`
	Gen      uint64 `json:"gen"`
	Offset   int64  `json:"offset"`
	Frames   int64  `json:"frames"`
	LagBytes int64  `json:"lagBytes"`
	// CaughtUp marks a member eligible to win: it has drained its primary
	// at least once and serves reads.
	CaughtUp bool `json:"caughtUp"`
	// SuspectsPrimary is the member's own detector verdict; a peer that
	// answers false vetoes this follower's election round.
	SuspectsPrimary bool `json:"suspectsPrimary"`

	// URL is where the info was fetched from; filled by the gatherer, not
	// serialized.
	URL string `json:"-"`
}

// Better reports whether a outranks b as a promotion candidate: higher
// epoch, then higher generation, then higher offset, then — full ties —
// the lexicographically lowest ID, so every member computes the same
// winner from the same information.
func Better(a, b PeerInfo) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Gen != b.Gen {
		return a.Gen > b.Gen
	}
	if a.Offset != b.Offset {
		return a.Offset > b.Offset
	}
	return a.ID < b.ID
}

// Config wires a Detector to its daemon.
type Config struct {
	// ID is this member's stable identity (the election tiebreaker).
	ID string
	// Primary is the base URL of the primary to watch.
	Primary string
	// Self reports this member's own election credentials.
	Self func() PeerInfo
	// Peers lists the other cluster members' base URLs (not the primary).
	Peers func() []string
	// PromoteSelf promotes this daemon; called at most once, from the
	// detector goroutine, after this member won an election.
	PromoteSelf func() error
	// Follow re-points this daemon at a new primary after someone else
	// won. The detector retargets its probes to the same URL.
	Follow func(url string) error

	// Client issues probes and peer fetches (http.DefaultClient when nil).
	Client *http.Client
	// Interval is the probe cadence before jitter (500ms when <= 0).
	Interval time.Duration
	// ProbeTimeout bounds one probe or peer fetch (Interval when <= 0).
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive-miss threshold (3 when <= 0).
	SuspectAfter int
	// PromoteWait bounds how long a losing follower waits for the elected
	// winner to report itself primary before rerunning the election
	// (20×Interval when <= 0).
	PromoteWait time.Duration
}

// Status snapshots the detector for /v1/stats.
type Status struct {
	Primary        string `json:"primary"`
	Suspected      bool   `json:"suspected"`
	Probes         int64  `json:"probes"`
	Misses         int64  `json:"misses"`
	Suspicions     int64  `json:"suspicions"`
	LastProbeRTTUs int64  `json:"lastProbeRTTUs"`
	Elections      int64  `json:"elections"`
	ElectionsWon   int64  `json:"electionsWon"`
	ElectionsLost  int64  `json:"electionsLost"`
	StandDowns     int64  `json:"standDowns"`
	NoQuorum       int64  `json:"noQuorum"`
}

// Detector probes one primary and coordinates the takeover when it dies.
type Detector struct {
	cfg Config
	key uint64

	primary atomic.Value // string: the URL currently watched

	suspected  atomic.Bool
	probes     atomic.Int64
	misses     atomic.Int64
	suspicions atomic.Int64
	lastRTT    atomic.Int64 // microseconds
	elections  atomic.Int64
	won        atomic.Int64
	lost       atomic.Int64
	standDowns atomic.Int64
	noQuorum   atomic.Int64

	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// New validates cfg and returns an idle detector; call Start.
func New(cfg Config) (*Detector, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("watch: ID required")
	}
	if cfg.Primary == "" {
		return nil, fmt.Errorf("watch: Primary required")
	}
	if cfg.Self == nil || cfg.PromoteSelf == nil || cfg.Follow == nil {
		return nil, fmt.Errorf("watch: Self, PromoteSelf and Follow callbacks required")
	}
	if cfg.Peers == nil {
		cfg.Peers = func() []string { return nil }
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.Interval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.PromoteWait <= 0 {
		cfg.PromoteWait = 20 * cfg.Interval
	}
	d := &Detector{cfg: cfg, key: probeKey(cfg.ID)}
	d.primary.Store(cfg.Primary)
	return d, nil
}

// probeKey derives the jitter key space: FNV-1a over a "watch:" prefix
// with the top bit forced, disjoint from both the supervisor's raw
// seed^index keys and the replica layer's "replica:"-prefixed hashes.
func probeKey(id string) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte("watch:" + id) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h | 1<<63
}

// Start launches the detector loop.
func (d *Detector) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.run(ctx)
	}()
}

// Stop signals the loop to exit without waiting — safe from the detector's
// own callbacks (PromoteSelf, Follow).
func (d *Detector) Stop() {
	d.once.Do(func() {
		if d.cancel != nil {
			d.cancel()
		}
	})
}

// Close stops the detector and joins its goroutine. Never call it from a
// detector callback; that goroutine cannot join itself.
func (d *Detector) Close() {
	d.Stop()
	d.wg.Wait()
}

// Primary returns the URL the detector currently watches.
func (d *Detector) Primary() string { return d.primary.Load().(string) }

// Status snapshots the counters.
func (d *Detector) Status() Status {
	return Status{
		Primary:        d.Primary(),
		Suspected:      d.suspected.Load(),
		Probes:         d.probes.Load(),
		Misses:         d.misses.Load(),
		Suspicions:     d.suspicions.Load(),
		LastProbeRTTUs: d.lastRTT.Load(),
		Elections:      d.elections.Load(),
		ElectionsWon:   d.won.Load(),
		ElectionsLost:  d.lost.Load(),
		StandDowns:     d.standDowns.Load(),
		NoQuorum:       d.noQuorum.Load(),
	}
}

// run is the detector loop: jittered probe, evidence accrual, election
// rounds while suspected. It returns when ctx is cancelled or this member
// promoted itself.
func (d *Detector) run(ctx context.Context) {
	consecutive := 0
	for seq := uint64(0); ; seq++ {
		// Constant cadence, deterministic per-tick jitter: attempt 0 keeps
		// the base interval, the sequence number varies the key so ticks do
		// not phase-lock across the fleet.
		t := time.NewTimer(faults.JitterBackoff(d.cfg.Interval, 0, d.key^seq))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		if d.probe(ctx) {
			consecutive = 0
			d.suspected.Store(false)
		} else if ctx.Err() != nil {
			return
		} else {
			consecutive++
			if consecutive >= d.cfg.SuspectAfter && !d.suspected.Load() {
				d.suspected.Store(true)
				d.suspicions.Add(1)
			}
		}
		if d.suspected.Load() {
			if promoted := d.elect(ctx); promoted {
				return
			}
			if !d.suspected.Load() {
				consecutive = 0 // adopted a new primary; evidence restarts
			}
		}
	}
}

// probe GETs the watched primary's /healthz under the probe deadline.
func (d *Detector) probe(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, d.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.Primary()+"/healthz", nil)
	if err != nil {
		return false
	}
	start := time.Now()
	resp, err := d.cfg.Client.Do(req)
	d.probes.Add(1)
	if err != nil {
		d.misses.Add(1)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.misses.Add(1)
		return false
	}
	d.lastRTT.Store(time.Since(start).Microseconds())
	return true
}

// FetchPeer GETs one member's /v1/replication/peer document and stamps
// its URL. ctx and the client's own timeout both bound the request.
func FetchPeer(ctx context.Context, client *http.Client, base string) (PeerInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/replication/peer", nil)
	if err != nil {
		return PeerInfo{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return PeerInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return PeerInfo{}, fmt.Errorf("watch: peer %s: %s", base, resp.Status)
	}
	var pi PeerInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		return PeerInfo{}, err
	}
	pi.URL = base
	return pi, nil
}

// fetchPeer is FetchPeer under the probe deadline.
func (d *Detector) fetchPeer(ctx context.Context, base string) (PeerInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, d.cfg.ProbeTimeout)
	defer cancel()
	return FetchPeer(ctx, d.cfg.Client, base)
}

// elect runs one election round. It returns true only when this member
// promoted itself (the detector's job is done); every other outcome —
// stood down, no quorum, adopted or still waiting for another winner —
// returns false and the loop keeps probing.
func (d *Detector) elect(ctx context.Context) bool {
	d.elections.Add(1)
	self := d.cfg.Self()
	self.ID = d.cfg.ID
	watched := d.Primary()

	responses := 1 // self
	var infos []PeerInfo
	for _, u := range d.cfg.Peers() {
		pi, err := d.fetchPeer(ctx, u)
		if err != nil {
			continue
		}
		responses++
		infos = append(infos, pi)
	}

	// Adopt a primary that already exists at our epoch or above — the
	// election already happened, we only missed the result.
	for _, pi := range infos {
		if pi.Role == "primary" && pi.Epoch >= self.Epoch {
			return d.followWinner(pi.URL)
		}
	}

	// Stand down while any reachable peer watching the same primary still
	// sees it healthy: the primary is alive, our link to it is not.
	for _, pi := range infos {
		if pi.Role == "replica" && pi.Primary == watched && !pi.SuspectsPrimary {
			d.standDowns.Add(1)
			return false
		}
	}

	// Quorum over the full membership, self included: a minority island
	// must wait out the partition, not elect behind it.
	members := 1 + len(d.cfg.Peers())
	if responses < members/2+1 {
		d.noQuorum.Add(1)
		return false
	}

	var winner *PeerInfo
	if self.CaughtUp {
		winner = &self
	}
	for i := range infos {
		pi := &infos[i]
		if !pi.CaughtUp || pi.Role != "replica" {
			continue
		}
		if winner == nil || Better(*pi, *winner) {
			winner = pi
		}
	}
	if winner == nil {
		return false // nobody eligible yet; keep probing
	}
	if winner.ID == d.cfg.ID {
		if err := d.cfg.PromoteSelf(); err != nil {
			return false
		}
		d.won.Add(1)
		return true
	}
	// Wait (bounded) for the winner to promote, then re-follow it. A
	// timeout reruns the election from fresh positions.
	deadline := time.Now().Add(d.cfg.PromoteWait)
	for poll := uint64(0); time.Now().Before(deadline) && ctx.Err() == nil; poll++ {
		pi, err := d.fetchPeer(ctx, winner.URL)
		if err == nil && pi.Role == "primary" {
			return d.followWinner(winner.URL)
		}
		t := time.NewTimer(faults.JitterBackoff(d.cfg.Interval/2+1, 0, d.key^(poll<<32|1)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
	return false
}

// followWinner re-points the daemon (and this detector) at the election
// winner. Returns false always: the detector keeps running, now watching
// the new primary.
func (d *Detector) followWinner(url string) bool {
	if err := d.cfg.Follow(url); err != nil {
		return false
	}
	d.lost.Add(1)
	d.primary.Store(url)
	d.suspected.Store(false)
	return false
}
