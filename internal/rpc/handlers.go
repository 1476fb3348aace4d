package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/geometry"
	"heteropart/internal/plancache"
	"heteropart/internal/pool"
	"heteropart/internal/replica"
	"heteropart/internal/speed"
	"heteropart/internal/store"
	"heteropart/internal/watch"
)

// maxBodyBytes bounds every request body.
const maxBodyBytes = 8 << 20

func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.handleHealth)
	mux.HandleFunc("/readyz", d.handleReady)
	mux.HandleFunc("/v1/stats", d.booting(d.handleStats))
	mux.HandleFunc("/v1/models", d.booting(d.handleModels))
	mux.HandleFunc("/v1/models/", d.booting(d.handleModelSub))
	mux.HandleFunc("/v1/partition", d.handlePartition)
	mux.HandleFunc("/v1/replication/promote", d.booting(d.handlePromote))
	mux.HandleFunc("/v1/replication/demote", d.booting(d.handleDemote))
	mux.HandleFunc("/v1/replication/peer", d.booting(d.handlePeer))
	mux.Handle("/v1/replication/", http.StripPrefix("/v1/replication",
		http.HandlerFunc(d.booting(d.handleReplication))))
	return mux
}

// booting guards a data route for the window where Run is listening but
// the store is still replaying: nothing behind the route exists yet.
func (d *Daemon) booting(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.booted.Load() {
			writeStatic(w, http.StatusServiceUnavailable, bodyBooting, true)
			return
		}
		h(w, r)
	}
}

// handleReplication forwards to the shipper's snapshot/wal/status feed.
func (d *Daemon) handleReplication(w http.ResponseWriter, r *http.Request) {
	d.shipper.Handler().ServeHTTP(w, r)
}

// handlePromote turns a replica into the primary (POST, no body).
func (d *Daemon) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	epoch, err := d.Promote()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"promoted": true, "epoch": epoch, "role": d.role()})
}

// handlePeer serves this member's election credentials: the document the
// failure detectors rank in an election, and the position a demoting
// primary polls while its successor drains.
func (d *Daemon) handlePeer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, d.peerInfo())
}

// demoteRequest is the planned-handover ask.
type demoteRequest struct {
	// Successor is the base URL of the follower to promote.
	Successor string `json:"successor"`
	// TimeoutMs bounds the drain wait (Config.HandoverTimeout when 0).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// handleDemote runs the planned handover: seal, wait for the successor to
// drain, promote it, re-follow it. 409 when this daemon is not primary,
// 504 when the successor never reached the sealed position (rolled back,
// writes resumed here), 502 when it refused promotion (also rolled back).
func (d *Daemon) handleDemote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req demoteRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Successor == "" {
		httpError(w, http.StatusBadRequest, "missing successor")
		return
	}
	epoch, err := d.Demote(req.Successor, time.Duration(req.TimeoutMs)*time.Millisecond)
	switch {
	case err == nil:
	case errors.Is(err, ErrNotPrimary):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrHandoverTimeout):
		httpError(w, http.StatusGatewayTimeout, "%v", err)
		return
	case errors.Is(err, ErrHandoverPromote):
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"demoted": true, "epoch": epoch, "role": d.role(), "primary": req.Successor,
	})
}

// httpError answers a JSON error body, encoded into a pooled buffer (the
// shape is identical to what the old map[string]string + json.Encoder
// produced, without their per-call allocations).
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	sc := wirePool.Get().(*wireScratch)
	sc.out = appendErrorBody(sc.out[:0], msg)
	writeBody(w, code, sc.out)
	releaseWire(sc)
}

// httpUnavailable answers 503 with a Retry-After hint: every transient
// refusal (booting, syncing, fenced write, handover window) is one a
// well-behaved client should retry, and elections resolve in about a
// second — so say so instead of making clients guess a backoff.
func httpUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header()["Retry-After"] = headerRetry1
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

// writeFenced answers the write-path 503s and reports whether the request
// was fenced: during a handover's sealed window, and on any non-primary.
// The demoting check comes first — a demoting daemon still reads as
// primary until the point of no return.
func (d *Daemon) writeFenced(w http.ResponseWriter) bool {
	if d.demoting.Load() {
		httpUnavailable(w, "handover in progress; retry and the new primary will answer")
		return true
	}
	if !d.primary.Load() {
		if up := d.upstreamURL(); up != "" {
			httpUnavailable(w, "read-only replica of %s; write to the primary or promote", up)
		} else {
			httpUnavailable(w, "no primary: election in progress, retry shortly")
		}
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleHealth is pure liveness: the process is up and serving HTTP. It
// answers 200 even while booting or syncing — restarting a daemon because
// it is still catching up would be self-inflicted unavailability. Routing
// decisions belong on /readyz.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status": "ok",
		"uptime": time.Since(d.start).String(),
	})
}

// handleReady is readiness: 200 only when this daemon will answer
// partition requests — a primary once its store has replayed, a replica
// once it has caught up to its primary at least once. Until then 503 with
// the reason, so a load balancer keeps traffic off a daemon that would
// answer with errors or a cold cache.
func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if !d.booted.Load() {
		httpUnavailable(w, "booting: store replaying")
		return
	}
	if !d.ready.Load() {
		reason := "not ready"
		if f := d.follower.Load(); f != nil {
			st := f.Status()
			reason = fmt.Sprintf("replica %s: lag %d bytes (%d frames) behind %s",
				st.State, st.LagBytes, st.LagFrames, st.Primary)
		}
		httpUnavailable(w, "%s", reason)
		return
	}
	writeJSON(w, map[string]any{
		"status": "ready",
		"role":   d.role(),
		"uptime": time.Since(d.start).String(),
	})
}

// statsReply is the /v1/stats document.
type statsReply struct {
	Uptime      string                           `json:"uptime"`
	Cache       plancache.Stats                  `json:"cache"`
	Store       store.Stats                      `json:"store"`
	Models      int                              `json:"models"`
	Replication replicationStats                 `json:"replication"`
	Tenants     map[string]fabric.TenantSnapshot `json:"tenants,omitempty"`
	Fabric      *fabric.Status                   `json:"fabric,omitempty"`
	// WALAppendFailures counts admitted plans the WAL refused: served
	// from the cache, but lost at the next restart.
	WALAppendFailures uint64 `json:"walAppendFailures"`
}

// replicationStats reports both sides of the log: this daemon's committed
// end (shipper — every daemon ships, so a promoted replica can seed the
// next follower), and, on a replica, the follower's confirmed position
// against its primary's, with the lag in frames and bytes that failover
// tuning needs.
type replicationStats struct {
	ID    string `json:"id"`
	Role  string `json:"role"`
	Ready bool   `json:"ready"`
	// Primary is the upstream this daemon follows ("" when it is primary).
	Primary string `json:"primary,omitempty"`
	// Handovers counts planned demotions completed by this daemon.
	Handovers int64                 `json:"handovers"`
	Shipper   replica.ShipperStatus `json:"shipper"`
	Follower  *replica.Status       `json:"follower,omitempty"`
	// Watch is the failure detector's view: suspicion count, last probe
	// RTT, elections won/lost. Present only while a detector is watching.
	Watch *watch.Status `json:"watch,omitempty"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.store.Stats()
	writeJSON(w, statsReply{
		Uptime: time.Since(d.start).String(),
		Cache:  d.cache.Stats(),
		Store:  st,
		Models: st.Models,
		Replication: func() replicationStats {
			rs := replicationStats{
				ID:        d.id,
				Role:      d.role(),
				Ready:     d.ready.Load(),
				Primary:   d.upstreamURL(),
				Handovers: d.handovers.Load(),
				Shipper:   d.shipper.Status(),
			}
			if f := d.follower.Load(); f != nil && !d.primary.Load() {
				st := f.Status()
				rs.Follower = &st
			}
			if wt := d.watcher.Load(); wt != nil && !d.primary.Load() {
				ws := wt.Status()
				rs.Watch = &ws
			}
			return rs
		}(),
		Tenants: d.tenancy.Snapshot(),
		Fabric: func() *fabric.Status {
			f := d.fab.Load()
			if f == nil {
				return nil
			}
			s := f.Status()
			return &s
		}(),
		WALAppendFailures: d.walAppendFailures.Load(),
	})
}

// modelReply describes one stored model on the wire; fingerprints travel
// as fixed-width hex.
type modelReply struct {
	Label       string `json:"label"`
	Fingerprint string `json:"fingerprint"`
	Processors  int    `json:"processors"`
	Replaced    bool   `json:"replaced,omitempty"`
	Invalidated int    `json:"invalidatedPlans,omitempty"`
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func (d *Daemon) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		models := d.store.Models()
		out := make([]modelReply, len(models))
		for i, mi := range models {
			out[i] = modelReply{Label: mi.Label, Fingerprint: fpString(mi.Fingerprint), Processors: mi.Processors}
		}
		writeJSON(w, out)
	case http.MethodPost:
		d.handleModelUpload(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleModelUpload ingests a clusterio document: expand, fingerprint,
// persist, and — when the label refreshes an existing model — invalidate
// the old model's plans in cache and store (the durable drift path).
func (d *Daemon) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	// A replica's state arrives only over the replication stream; a local
	// write would diverge from the primary and be thrown away by the next
	// handoff. 503 (not 4xx): after promotion the same request succeeds.
	if d.writeFenced(w) {
		return
	}
	label := r.URL.Query().Get("label")
	if label == "" {
		httpError(w, http.StatusBadRequest, "missing ?label=")
		return
	}
	// The HTTP boundary enforces the tenant grammar strictly; the store
	// only canonicalizes. From here on the canonical spelling is the
	// identity.
	parsed, err := fabric.ParseLabel(label)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad label %q: %v", label, err)
		return
	}
	label = parsed.String()
	defaultMax, ok := defaultMaxParam(w, r)
	if !ok {
		return
	}
	cluster, err := clusterio.Load(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fns, _, err := cluster.Functions(defaultMax)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := speed.NewModel(fns)
	old, err := d.store.PutModel(label, m)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var invalidated int
	if old != nil {
		// The store logged the invalidation and dropped its own copies;
		// drop the cache's.
		invalidated = d.cache.InvalidateFingerprint(old.Fingerprint())
	}
	writeJSON(w, modelReply{
		Label: label, Fingerprint: fpString(m.Fingerprint()), Processors: len(m.Fns()),
		Replaced: old != nil, Invalidated: invalidated,
	})
}

// handleModelSub routes the per-model subresources under /v1/models/;
// today that is POST /v1/models/{label}/refresh.
func (d *Daemon) handleModelSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	// Split at the LAST '/': labels may be tenant-qualified
	// ("acme/m/refresh" is label "acme/m", action "refresh").
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 || rest[i+1:] != "refresh" {
		httpError(w, http.StatusNotFound, "unknown model route %q (want /v1/models/{label}/refresh)", r.URL.Path)
		return
	}
	d.handleModelRefresh(w, r, rest[:i])
}

// refreshRequest replaces one processor of a stored model.
type refreshRequest struct {
	// Proc is the processor index to replace (required — 0 is a valid
	// index, so absence is an error, not a default).
	Proc *int `json:"proc"`
	// Processor is the replacement in the clusterio schema.
	Processor clusterio.Processor `json:"processor"`
}

// refreshReply reports a delta refresh: the fingerprint move and how the
// cached plans fared (kept = re-keyed and still serving as exact hits,
// dropped = will recompute on the next request).
type refreshReply struct {
	Label          string `json:"label"`
	Fingerprint    string `json:"fingerprint"`
	OldFingerprint string `json:"oldFingerprint"`
	Proc           int    `json:"proc"`
	Changed        bool   `json:"changed"`
	KeptPlans      int    `json:"keptPlans"`
	DroppedPlans   int    `json:"droppedPlans"`
}

// defaultMaxParam parses the optional ?defaultMax= of a model upload or
// refresh: the size bound of constant-speed processors that declare none
// (default 1e9). ok is false once it has answered 400.
func defaultMaxParam(w http.ResponseWriter, r *http.Request) (float64, bool) {
	s := r.URL.Query().Get("defaultMax")
	if s == "" {
		return 1e9, true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) {
		httpError(w, http.StatusBadRequest, "bad defaultMax %q", s)
		return 0, false
	}
	return v, true
}

// handleModelRefresh is the delta drift path: replace one processor's
// speed function in a stored model without re-uploading the cluster. The
// store appends a compact delta record (not the whole model), and the plan
// cache migrates instead of resetting — plans whose allocation provably
// cannot change survive under the new fingerprint.
func (d *Daemon) handleModelRefresh(w http.ResponseWriter, r *http.Request, label string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if d.writeFenced(w) {
		return
	}
	defaultMax, ok := defaultMaxParam(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req refreshRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Proc == nil {
		httpError(w, http.StatusBadRequest, "missing proc (the processor index to replace)")
		return
	}
	// Expand through a one-processor cluster so the replacement gets the
	// same validation and expansion as an upload.
	one := clusterio.Cluster{Processors: []clusterio.Processor{req.Processor}}
	if err := one.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fns1, _, err := one.Functions(defaultMax)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	proc := *req.Proc
	old, refreshed, err := d.store.RefreshProcessor(label, proc, fns1[0])
	switch {
	case errors.Is(err, store.ErrUnknownLabel):
		httpError(w, http.StatusNotFound, "unknown model %q (upload it via /v1/models)", label)
		return
	case errors.Is(err, store.ErrProcOutOfRange):
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reply := refreshReply{
		Label: label, Proc: proc,
		Fingerprint: fpString(refreshed.Fingerprint()), OldFingerprint: fpString(old.Fingerprint()),
		Changed: refreshed.Fingerprint() != old.Fingerprint(),
	}
	if reply.Changed {
		reply.KeptPlans, reply.DroppedPlans = d.cache.Refresh(old, refreshed)
	}
	writeJSON(w, reply)
}

// partitionReply is one answered plan.
type partitionReply struct {
	Alloc []int64    `json:"alloc,omitempty"`
	Slope float64    `json:"slope,omitempty"`
	Tier  string     `json:"tier,omitempty"`
	Stats core.Stats `json:"stats"`
	Error string     `json:"error,omitempty"`
}

// partitionAsk is what the partition route reads from a request's head;
// net/http (askOf) and the raw edge (edge.go) each fill it.
type partitionAsk struct {
	post      bool
	forwarded bool   // the request carries fabric.ForwardedHeader
	model     uint64 // a single X-Hetpart-Model value, when hasModel
	hasModel  bool
}

// handlePartition is the partition route's net/http transport.
func (d *Daemon) handlePartition(w http.ResponseWriter, r *http.Request) {
	d.partition(w, askOf(r), r.Body, r.ContentLength)
}

// askOf reads a partition request's ask from net/http's parse of its head.
func askOf(r *http.Request) partitionAsk {
	ask := partitionAsk{
		post:      r.Method == http.MethodPost,
		forwarded: len(r.Header[fabric.ForwardedHeader]) > 0,
	}
	if v := r.Header[fabric.ModelHeader]; len(v) == 1 {
		ask.model, ask.hasModel = parseFingerprint([]byte(v[0]))
	}
	return ask
}

// partition answers one request or a batch through the pooled wire codec
// (wire.go): the body is parsed in a single pass, batch vs single decided
// by the first key of the top-level object, and each plan's reply is
// copied from the encoding the plan cache keeps with it into a pooled
// buffer — the warm path allocates nothing. body
// holds length bytes, or runs to EOF when length is negative.
//
// Two deliberate behavior changes from the old double-decode dispatch: a
// body whose first key is "requests" is always a batch (a malformed batch
// is one consistent 400 instead of being silently re-tried as a single
// request), and {"requests":[]} answers {"responses":[]} instead of
// "missing model".
func (d *Daemon) partition(w http.ResponseWriter, ask partitionAsk, body io.Reader, length int64) {
	if !d.booted.Load() { // the booting wrapper's check, for both transports
		writeStatic(w, http.StatusServiceUnavailable, bodyBooting, true)
		return
	}
	if !ask.post {
		writeStatic(w, http.StatusMethodNotAllowed, bodyUsePOST, false)
		return
	}
	// A syncing replica would answer from a cold, half-mirrored cache —
	// not wrong, but not the warm bit-identical plans replication exists
	// to preserve. Stay 503 until caught up (readiness), then serve reads
	// for good.
	if !d.ready.Load() {
		writeStatic(w, http.StatusServiceUnavailable, bodySyncing, true)
		return
	}
	sc := wirePool.Get().(*wireScratch)
	defer releaseWire(sc)
	if err := sc.readBody(body, length); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeStatic(w, http.StatusBadRequest, bodyTooLarge, false)
		} else {
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		}
		return
	}
	batch, err := sc.parsePartition()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if batch {
		d.servePartitionBatch(w, ask.forwarded, sc)
		return
	}
	d.servePartitionSingle(w, ask, sc)
}

// countTier charges one answered request to its tenant's tier counters.
func countTier(ts *fabric.TenantStats, tier plancache.Tier) {
	switch tier {
	case plancache.TierHit:
		ts.Hits.Add(1)
	case plancache.TierShared:
		ts.Shared.Add(1)
	default:
		ts.Misses.Add(1)
	}
}

// tierHeaderValue maps a tier onto its prebuilt X-Hetpart-Tier value.
func tierHeaderValue(tier plancache.Tier) []string {
	switch tier {
	case plancache.TierHit:
		return headerTierHit
	case plancache.TierShared:
		return headerTierShared
	default:
		return headerTierMiss
	}
}

// writeQuotaError answers a token-bucket refusal: 429 with the seconds
// until a token is available, the same retry contract the transient 503s
// use.
func writeQuotaError(w http.ResponseWriter, retry int) {
	if retry <= 1 {
		w.Header()["Retry-After"] = headerRetry1
	} else {
		w.Header()["Retry-After"] = []string{strconv.Itoa(retry)}
	}
	httpError(w, http.StatusTooManyRequests, "tenant over quota; retry after %ds", retry)
}

// forwardPartition relays the raw request body to the owning member and
// the response back verbatim, through sc.out. Returns false when the
// owner is unreachable or answering 5xx — the caller serves locally
// instead (every member can compute every plan; an owner outage costs
// cache warmth, not availability). 2xx-4xx relay as-is: a 400 is the same
// 400 this member would produce. req is the request as this member
// resolved it (zero when it did not): the relay names its model's
// fingerprint, and a hit the owner confirms on that same model is offered
// to this member's cache, so a later ask here is a local hit.
func (d *Daemon) forwardPartition(w http.ResponseWriter, sc *wireScratch, fab *fabric.Fabric, owner int, ts *fabric.TenantStats, req planRequest) bool {
	status, hit, same, resp, err := fab.Forward(owner, req.model.Fingerprint(), sc.body, sc.out[:0])
	sc.out = resp
	if err != nil || status >= 500 {
		fab.ForwardErrors.Add(1)
		fab.FallbackLocal.Add(1)
		return false
	}
	fab.Forwarded.Add(1)
	ts.Forwarded.Add(1)
	if hit {
		fab.RemoteHits.Add(1)
		ts.RemoteHits.Add(1)
	}
	if status == http.StatusOK && same {
		if res, enc, ok := remotePlan(sc.out); ok {
			d.cache.Offer(req.model, req.algo, req.n, res, enc, req.opts...)
		}
	}
	writeBody(w, status, sc.out)
	return true
}

// remotePlan decodes an owner's relayed hit and reports whether it may be
// kept: only when its encoding, answered as a hit, is exactly body, so a
// later local hit on the copy repeats the owner's bytes. That encoding is
// the one the kept plan carries.
func remotePlan(body []byte) (core.Result, plancache.Encoding, bool) {
	var rep partitionReply
	if json.Unmarshal(body, &rep) != nil || rep.Tier != "hit" || rep.Error != "" {
		return core.Result{}, plancache.Encoding{}, false
	}
	res := core.Result{Alloc: rep.Alloc, Slope: rep.Slope, Stats: rep.Stats}
	enc := encodePlan(res)
	if !bytes.Equal(append(appendPlanReply(nil, enc, plancache.TierHit), '\n'), body) {
		return core.Result{}, plancache.Encoding{}, false
	}
	return res, enc, true
}

// planRequest is one validated partition ask, its model resolved to the
// store's handle.
type planRequest struct {
	algo  core.Algorithm
	n     int64
	model *speed.Model
	opts  []core.Option
}

// wireToServe validates one parsed wire request and resolves its model,
// over spans instead of strings so the happy path allocates nothing.
func (d *Daemon) wireToServe(sc *wireScratch, wr *wireRequest) (planRequest, error) {
	model := sc.spanBytes(wr.model)
	if len(model) == 0 {
		return planRequest{}, errMissingModel
	}
	if wr.n < 0 {
		return planRequest{}, errNegativeN
	}
	m, ok := d.resolveModelBytes(model)
	if !ok {
		return planRequest{}, errUnknownModel
	}
	var algo core.Algorithm
	switch string(sc.spanBytes(wr.algo)) {
	case "", "combined":
		algo = core.AlgoCombined
	case "basic":
		algo = core.AlgoBasic
	case "modified":
		algo = core.AlgoModified
	default:
		return planRequest{}, errUnknownAlgorithm
	}
	opts, err := wr.toOpts(sc)
	if err != nil {
		return planRequest{}, err
	}
	return planRequest{algo: algo, n: wr.n, model: m, opts: opts}, nil
}

// toOpts converts the flattened wire options to core options. The
// validation error texts are part of the API (TestPartitionDispatchBehavior
// pins them, and the differential suite holds them to wire_test.go's
// reference). The common no-options request returns nil without
// allocating.
func (wr *wireRequest) toOpts(sc *wireScratch) ([]core.Option, error) {
	bis := sc.spanBytes(wr.bisection)
	if !wr.hasFineTune && wr.maxSteps == 0 && wr.elasticity == 0 && len(bis) == 0 {
		return nil, nil
	}
	var opts []core.Option
	if wr.hasFineTune && !wr.fineTune {
		opts = append(opts, core.WithoutFineTune())
	}
	if wr.maxSteps < 0 {
		return nil, errMaxSteps
	}
	if wr.maxSteps > 0 {
		opts = append(opts, core.WithMaxSteps(wr.maxSteps))
	}
	if wr.elasticity < 0 {
		return nil, errElasticity
	}
	if wr.elasticity > 0 {
		opts = append(opts, core.WithElasticityThreshold(wr.elasticity))
	}
	switch string(bis) {
	case "":
	case "tangents":
		opts = append(opts, core.WithBisection(geometry.BisectTangents))
	case "angles":
		opts = append(opts, core.WithBisection(geometry.BisectAngles))
	default:
		return nil, errUnknownBisection
	}
	return opts, nil
}

// The validation errors of wireToServe. A response carries the text
// appendAskError appends for one, which names the ask's model, n,
// algorithm or bisection where the text does, so no 400 of the partition
// route allocates; an edge relaying the request drops an errUnknownModel.
var (
	errMissingModel     = errors.New("missing model")
	errNegativeN        = errors.New("negative n")
	errUnknownModel     = errors.New("unknown model")
	errUnknownAlgorithm = errors.New("unknown algorithm")
	errMaxSteps         = errors.New("maxSteps must be positive")
	errElasticity       = errors.New("elasticity must be positive")
	errUnknownBisection = errors.New("unknown bisection")
)

// parseFingerprint parses a hex fingerprint with an optional "0x", as
// strconv.ParseUint(s, 16, 64) would, without building its error.
func parseFingerprint(b []byte) (uint64, bool) {
	b = bytes.TrimPrefix(b, []byte("0x"))
	var fp uint64
	for _, c := range b {
		d := uint64(16)
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		}
		if d > 15 || fp>>60 != 0 {
			return 0, false
		}
		fp = fp<<4 | d
	}
	return fp, len(b) > 0
}

// resolveModelBytes maps a wire model name — a stored label or a hex
// fingerprint — onto its model in the store's catalog: the label lookup is
// a lock-free map probe that copies nothing; the hex-fingerprint fallback
// is rare and may allocate. The handle's fingerprint is its functions' own
// (the store hashes every model it installs, and refuses a record that
// does not reproduce its recorded fingerprint).
func (d *Daemon) resolveModelBytes(name []byte) (*speed.Model, bool) {
	if m, ok := d.store.ModelByLabel(name); ok {
		return m, true
	}
	if fp, ok := parseFingerprint(name); ok {
		return d.store.Model(fp)
	}
	return nil, false
}

// servePartitionSingle answers sc.reqs[0] from the plan cache: an exact
// hit's encoding is copied into the reply without allocating, anything
// else is computed (or joins the computation in flight, or is admitted
// from the admission window) on the handler goroutine.
// The tenant layer gets its say first — the request is attributed and
// quota-charged at the edge. A request whose plan family another fabric
// member owns is answered here only if this member's cache holds the
// plan (an edge hit: plans are pure functions of their key, so the bytes
// are the owner's); otherwise it is relayed to the owner verbatim. A
// request carrying the forwarding fence is always served locally (no
// re-forward, no second quota charge) and announces its tier in a
// response header so the relaying edge can count remote hits without
// parsing the body.
func (d *Daemon) servePartitionSingle(w http.ResponseWriter, ask partitionAsk, sc *wireScratch) {
	wr := &sc.reqs[0]
	tenant, family := fabric.TenantSpan(sc.spanBytes(wr.model))
	ts := d.tenancy.Stats(tenant)
	ts.Requests.Add(1)
	fab := d.fab.Load()
	owner := -1 // the remote member owning the plan family, if any
	if ask.forwarded {
		if fab != nil {
			fab.ForwardedIn.Add(1)
		}
	} else {
		if ok, retry := d.tenancy.Allow(tenant, time.Now()); !ok {
			ts.Rejected.Add(1)
			writeQuotaError(w, retry)
			return
		}
		if fab != nil && len(family) > 0 && wr.n >= 0 {
			if o := fab.OwnerIndex(tenant, family, wr.n); !fab.IsSelf(o) {
				owner = o
			} else {
				fab.ServedLocal.Add(1)
			}
		}
	}
	req, err := d.wireToServe(sc, wr)
	var enc plancache.Encoding
	hit := false
	if err == nil {
		enc, hit = d.cache.Peek(req.model, req.algo, req.n, req.opts...)
	}
	if owner >= 0 {
		if hit {
			fab.EdgeHits.Add(1)
		} else if d.forwardPartition(w, sc, fab, owner, ts, req) {
			return
		}
		// An edge hit answers below, and so does a request whose owner
		// is down: every member can compute every plan.
	}
	if err != nil {
		ts.Errors.Add(1)
		sc.out = append(appendAskError(append(sc.out[:0], `{"error":`...), err, sc, wr), "}\n"...)
		writeBody(w, http.StatusBadRequest, sc.out)
		return
	}
	tier := plancache.TierHit
	if !hit {
		enc, tier, err = d.cache.GetEncoded(req.algo, req.n, req.model, req.opts...)
		if err != nil {
			ts.Errors.Add(1)
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	countTier(ts, tier)
	if ask.forwarded {
		h := w.Header()
		h[fabric.TierHeader] = tierHeaderValue(tier)
		if tier == plancache.TierHit && ask.hasModel && ask.model == req.model.Fingerprint() {
			h[fabric.SameModelHeader] = headerSameModel
		}
	}
	sc.out = append(appendPlanReply(sc.out[:0], enc, tier), '\n')
	writeBody(w, http.StatusOK, sc.out)
}

// servePartitionBatch answers sc.reqs as one response document. A first
// pass takes the hits' encodings and records the misses; the
// misses then run over the shared worker pool, each writing only its own
// item, so at most the pool's width of them compute at once. Elements
// that name one plan more than once are separate asks of it: the cache's
// singleflight and admission window share the work.
//
// The tenant layer runs as a separate admission pass first: each element
// is attributed and quota-charged, and when one remote member owns every
// element's plan family the whole body is relayed there verbatim (mixed
// owners serve locally — splitting a batch would need a scatter to the
// owners and a merge of their replies).
// The encode pass streams: past batchFlushBytes the buffer is flushed to
// the client and reused, so a 100k-element batch costs O(64 KiB) of
// response memory, not O(batch). The byte stream is identical either way.
func (d *Daemon) servePartitionBatch(w http.ResponseWriter, forwarded bool, sc *wireScratch) {
	k := len(sc.reqs)
	if cap(sc.items) < k {
		sc.items = make([]wireItem, k)
	} else {
		sc.items = sc.items[:k]
	}
	fab := d.fab.Load()
	owner, uniform, rejected := -1, true, false
	now := time.Now() // one quota clock reading for the whole batch
	for i := range sc.reqs {
		it := &sc.items[i]
		*it = wireItem{}
		wr := &sc.reqs[i]
		tenant, family := fabric.TenantSpan(sc.spanBytes(wr.model))
		it.ts = d.tenancy.Stats(tenant)
		it.ts.Requests.Add(1)
		if !forwarded {
			if ok, retry := d.tenancy.Allow(tenant, now); !ok {
				it.retry = retry
				it.ts.Rejected.Add(1)
				rejected = true
				continue
			}
		}
		if fab != nil && uniform && len(family) > 0 && wr.n >= 0 {
			switch o := fab.OwnerIndex(tenant, family, wr.n); {
			case owner == -1:
				owner = o
			case o != owner:
				uniform = false
			}
		}
	}
	switch {
	case forwarded:
		if fab != nil {
			fab.ForwardedIn.Add(1)
		}
	case fab != nil && uniform && owner >= 0 && !fab.IsSelf(owner) && !rejected:
		// One remote owner for the whole batch: relay it verbatim so its
		// elements warm the owner's cache, exactly as a local batch would.
		status, _, _, resp, err := fab.Forward(owner, 0, sc.body, sc.out[:0])
		sc.out = resp
		if err == nil && status < 500 {
			fab.Forwarded.Add(1)
			for i := range sc.items {
				sc.items[i].ts.Forwarded.Add(1)
			}
			writeBody(w, status, sc.out)
			return
		}
		fab.ForwardErrors.Add(1)
		fab.FallbackLocal.Add(1)
	case fab != nil:
		fab.ServedLocal.Add(1)
	}
	sc.misses = sc.misses[:0]
	for i := range sc.reqs {
		it := &sc.items[i]
		if it.retry > 0 {
			continue
		}
		req, err := d.wireToServe(sc, &sc.reqs[i])
		if err != nil {
			it.err = err
			continue
		}
		var ok bool
		if it.enc, ok = d.cache.Peek(req.model, req.algo, req.n, req.opts...); ok {
			it.tier = plancache.TierHit
			continue
		}
		it.req = req
		sc.misses = append(sc.misses, i)
	}
	if len(sc.misses) > 0 {
		pool.Shared().Run(len(sc.misses), func(j int) {
			it := &sc.items[sc.misses[j]]
			it.enc, it.tier, it.err = d.cache.GetEncoded(it.req.algo, it.req.n, it.req.model, it.req.opts...)
		})
	}
	var zero core.Stats
	streaming := false
	out := append(sc.out[:0], `{"responses":[`...)
	for i := range sc.items {
		if i > 0 {
			out = append(out, ',')
		}
		it := &sc.items[i]
		switch {
		case it.retry > 0:
			out = appendReply(out, nil, 0, "", &zero, "tenant over quota; retry after "+strconv.Itoa(it.retry)+"s")
		case it.err != nil:
			it.ts.Errors.Add(1)
			out = append(appendAskError(append(appendReplyHead(out, nil, 0, "", &zero), `,"error":`...), it.err, sc, &sc.reqs[i]), '}')
		default:
			countTier(it.ts, it.tier)
			out = appendPlanReply(out, it.enc, it.tier)
		}
		// The scratch goes back to the pool: it must not keep a replaced
		// model, or a plan, alive.
		*it = wireItem{}
		if len(out) >= batchFlushBytes {
			if !streaming {
				w.Header()["Content-Type"] = headerJSON
				w.WriteHeader(http.StatusOK)
				streaming = true
			}
			w.Write(out)
			out = out[:0]
		}
	}
	out = append(append(out, `]}`...), '\n')
	sc.out = out
	if streaming {
		w.Write(out)
		return
	}
	writeBody(w, http.StatusOK, out)
}
