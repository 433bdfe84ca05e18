// Shard mode: with -shard-id volleyd runs ONE shard of a cross-process
// monitoring cluster. Each shard is its own process: shards gossip
// membership and the task catalog over a hardened TCP fabric, place tasks
// on a consistent-hash ring, host the coordinator and monitors of the
// tasks they own, and replicate each owned task's allowance snapshots to
// the task's ring successor — so when a shard is killed without warning,
// the successor re-admits its tasks warm from the last shipped snapshot.
//
//	volleyd -shard-id a -peer-listen 127.0.0.1:7001 \
//	        -peers b=127.0.0.1:7002,c=127.0.0.1:7003 \
//	        -interval 1s -listen :9464
//
// Tasks are admitted on any shard (POST /tasks, same body as cluster
// mode) and gossip to the rest; /cluster reports the shard's membership
// view, ring digest, owned tasks and held replica snapshots. PATCH
// /tasks/{name}/allowance overrides the owner's per-monitor allowance.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"volley"
	"volley/internal/cluster"
	"volley/internal/transport"
)

// shardHostSpec is the gossiped description of a task's monitor sources:
// whichever shard owns the task builds its monitors from it. It travels
// opaquely through the cluster layer as JSON.
type shardHostSpec struct {
	Direction   string                  `json:"direction,omitempty"`
	MaxInterval int                     `json:"maxInterval,omitempty"`
	Monitors    []clusterMonitorRequest `json:"monitors"`
}

// tcpFabric adapts a TCPNode to transport.Network. The TCP node needs its
// handler at listen time, before the cluster node that handles messages
// exists, so the handler indirects through an atomic pointer and Register
// just checks the address claim. Deregister tears down dead peers'
// outbound state (satisfying transport.Deregisterer, so the cluster node
// stops reconnect loops to crashed shards).
type tcpFabric struct {
	node    *transport.TCPNode
	handler atomic.Pointer[transport.Handler]
}

func newTCPFabric(listen string, tr *volley.Tracer, name string, opts ...transport.TCPOption) (*tcpFabric, error) {
	f := &tcpFabric{}
	opts = append([]transport.TCPOption{transport.WithObserver(tr, name)}, opts...)
	node, err := transport.ListenTCP(listen, func(msg transport.Message) {
		if h := f.handler.Load(); h != nil {
			(*h)(msg)
		}
	}, opts...)
	if err != nil {
		return nil, err
	}
	f.node = node
	return f, nil
}

func (f *tcpFabric) Register(addr string, h transport.Handler) error {
	if addr != f.node.Addr() {
		return fmt.Errorf("volleyd: register %q on TCP fabric listening at %q", addr, f.node.Addr())
	}
	if !f.handler.CompareAndSwap(nil, &h) {
		return fmt.Errorf("volleyd: address %q already registered", addr)
	}
	return nil
}

func (f *tcpFabric) Send(from, to string, msg transport.Message) error {
	return f.node.Send(from, to, msg)
}

func (f *tcpFabric) Deregister(addr string) error { return f.node.Deregister(addr) }

// shardDaemon owns the shard-mode runtime: the cluster node, the TCP
// fabric, the in-process monitor network, and the monitors hosted for
// owned tasks. It implements cluster.TaskHost — the node calls StartTask
// and StopTask as ownership moves.
type shardDaemon struct {
	*daemon
	node   *cluster.Node
	fabric *tcpFabric
	local  *transport.Memory
	alerts *volley.Counter

	encMu sync.Mutex
	enc   *json.Encoder

	mu   sync.Mutex
	mons map[string][]*volley.Monitor
	step uint64
}

// now is the virtual clock position of the last completed tick, stamping
// alert lifecycle operations from HTTP handlers.
func (d *shardDaemon) now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.step) * d.opts.interval
}

// parsePeerList parses "id=host:port,id=host:port" into members.
func parsePeerList(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		out = append(out, cluster.Member{ID: id, Addr: addr})
	}
	return out, nil
}

// runShard is shard-mode main.
func runShard(ctx context.Context, opts options) error {
	if opts.interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	if opts.maxInterval < 1 {
		return fmt.Errorf("max-interval must be at least 1, got %d", opts.maxInterval)
	}
	if opts.peerListen == "" {
		return fmt.Errorf("shard mode needs -peer-listen (the inter-shard fabric)")
	}
	peers, err := parsePeerList(opts.peers)
	if err != nil {
		return err
	}
	spec := daemonSpec{node: opts.shardID, tracerCap: 4096, requireListen: true}
	return runDaemon(ctx, opts, spec, func(base *daemon) (mode, error) { return newShardMode(base, peers) })
}

// newShardMode builds the TCP fabric and the cluster node on the shared
// runtime.
func newShardMode(base *daemon, peers []cluster.Member) (mode, error) {
	opts := base.opts
	d := &shardDaemon{
		daemon: base,
		local:  transport.NewMemory(),
		mons:   make(map[string][]*volley.Monitor),
		enc:    json.NewEncoder(opts.out),
	}
	d.alerts = d.reg.Counter("volleyd_alerts_total", "State alerts raised across all owned tasks.")
	fabricOpts := []transport.TCPOption{}
	if opts.batchWindow != 0 {
		fabricOpts = append(fabricOpts, transport.WithBatchWindow(opts.batchWindow))
	}
	if opts.maxBatch != 0 {
		fabricOpts = append(fabricOpts, transport.WithMaxBatch(opts.maxBatch))
	}
	var err error
	if d.fabric, err = newTCPFabric(opts.peerListen, d.tracer, opts.shardID, fabricOpts...); err != nil {
		return mode{}, err
	}
	// Wire traffic next to the task metrics: bytes on the fabric, frames
	// coalesced, queue depths per peer.
	d.fabric.node.RegisterMetrics(d.reg)

	d.node, err = cluster.NewNode(cluster.NodeConfig{
		ID:            opts.shardID,
		Addr:          d.fabric.node.Addr(),
		Peers:         peers,
		Inter:         d.fabric,
		Local:         d.local,
		Host:          d,
		BeaconEvery:   opts.beaconEvery,
		SuspectAfter:  opts.suspectAfter,
		DeadAfter:     opts.deadAfter,
		SnapshotEvery: opts.snapshotEvery,
		OnAlert: func(task string, now time.Duration, total float64) {
			d.alerts.Inc()
			d.encMu.Lock()
			defer d.encMu.Unlock()
			_ = d.enc.Encode(map[string]any{
				"time": time.Now(), "kind": "alert", "task": task,
				"value": total, "at": now.String(), "shard": opts.shardID,
			})
		},
		Metrics: d.reg,
		Tracer:  d.tracer,
		Alerts:  d.alertReg,
	})
	if err != nil {
		_ = d.fabric.node.Close()
		return mode{}, err
	}
	return mode{status: d.status, now: d.now, routes: d.routes, loop: d.loop, close: d.fabric.node.Close}, nil
}

// loop drives the node and the hosted monitors once per -interval on a
// virtual clock (tick count × interval), the same time base the other
// modes use, so liveness and replication horizons configured in ticks
// never skew with wall-clock jitter.
func (d *shardDaemon) loop(ctx context.Context) error {
	ticker := time.NewTicker(d.opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		d.mu.Lock()
		now := time.Duration(d.step+1) * d.opts.interval
		d.step++
		d.mu.Unlock()
		// Tick the node first: ownership changes (StartTask/StopTask)
		// settle before the monitor pass snapshots the hosted set.
		d.node.Tick(now)
		d.mu.Lock()
		mons := make([]*volley.Monitor, 0, len(d.mons)*2)
		for _, ms := range d.mons {
			mons = append(mons, ms...)
		}
		d.mu.Unlock()
		for _, m := range mons {
			// Agent failures are retried at the next interval and already
			// counted in the monitor's own stats.
			_, _, _ = m.Tick(now)
		}
	}
}

// StartTask implements cluster.TaskHost: it builds and hosts the task's
// monitors from the gossiped host spec, pointed at the owning
// coordinator. Called by the node while it holds its own lock; only d.mu
// is taken here (lock order: node → daemon, never the reverse while
// calling into the node).
func (d *shardDaemon) StartTask(spec cluster.TaskSpec, hostSpec []byte, coordAddr string) error {
	var hs shardHostSpec
	if err := json.Unmarshal(hostSpec, &hs); err != nil {
		return fmt.Errorf("host spec for %q: %w", spec.Name, err)
	}
	a, err := validateTask(clusterTaskRequest{
		Name:        spec.Name,
		Threshold:   spec.Threshold,
		Direction:   hs.Direction,
		Err:         spec.Err,
		MaxInterval: hs.MaxInterval,
		Monitors:    hs.Monitors,
	}, d.opts.maxInterval)
	if err != nil {
		return err
	}
	mons := make([]*volley.Monitor, len(a.spec.Monitors))
	for i := range mons {
		if mons[i], err = volley.NewMonitor(d.hostedMonitorConfig(a, i, d.local, coordAddr)); err != nil {
			for _, addr := range a.spec.Monitors[:i] {
				_ = d.local.Deregister(addr)
			}
			return err
		}
	}
	d.mu.Lock()
	d.mons[spec.Name] = mons
	d.mu.Unlock()
	return nil
}

// StopTask implements cluster.TaskHost: the task's monitors are dropped
// and their addresses freed.
func (d *shardDaemon) StopTask(name string) error {
	d.mu.Lock()
	mons := d.mons[name]
	delete(d.mons, name)
	d.mu.Unlock()
	for _, m := range mons {
		_ = d.local.Deregister(m.ID())
	}
	return nil
}

// status is the /healthz (and expvar) payload.
func (d *shardDaemon) status() map[string]any {
	st := d.node.Status()
	return map[string]any{
		"status":         "ok",
		"mode":           "shard",
		"shard":          st.ID,
		"uptime_seconds": d.uptime().Seconds(),
		"ring_digest":    fmt.Sprintf("%016x", st.RingDigest),
		"ring_members":   st.RingMembers,
		"owned":          len(st.Owned),
		"catalog":        st.CatalogLive,
		"cold_starts":    st.ColdStarts,
		"recoveries":     st.Recoveries,
		"alerts":         d.alerts.Value(),
	}
}

// routes wires the shard control plane onto the shared HTTP surface.
func (d *shardDaemon) routes(mux *http.ServeMux) {
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, d.node.Status())
	})
	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, d.node.Catalog())
	})
	mux.HandleFunc("POST /tasks", d.handleShardAdmit)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleShardRemove)
	mux.HandleFunc("PATCH /tasks/{name}/allowance", d.handleShardAllowance)
}

// handleShardAdmit enters a task into the gossiped catalog. The sources
// are validated here (every shard runs the same binary, so a source that
// builds here builds on the owner); ownership is decided by the ring on
// the next tick and may land on any shard.
func (d *shardDaemon) handleShardAdmit(w http.ResponseWriter, r *http.Request) {
	var req clusterTaskRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	a, err := validateTask(req, d.opts.maxInterval)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hostSpec, err := json.Marshal(shardHostSpec{
		Direction:   req.Direction,
		MaxInterval: req.MaxInterval,
		Monitors:    req.Monitors,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if err := d.node.Admit(a.spec, hostSpec); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "monitors": a.spec.Monitors,
	})
}

// handleShardRemove tombstones a task; every shard evicts it as the
// tombstone gossips.
func (d *shardDaemon) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	if err := d.node.Remove(r.PathValue("name")); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// shardAllowanceRequest is the PATCH /tasks/{name}/allowance body: a full
// per-monitor allowance override, keyed by monitor address.
type shardAllowanceRequest struct {
	Assignments map[string]float64 `json:"assignments"`
}

// handleShardAllowance overrides an owned task's allowance distribution.
// Only the owning shard accepts it (409 elsewhere — read /cluster to find
// the owner); the override replicates to the ring successor with the next
// tick's snapshot ship.
func (d *shardDaemon) handleShardAllowance(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req shardAllowanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Assignments) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty assignments"))
		return
	}
	if err := d.node.SetAllowance(name, req.Assignments); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
