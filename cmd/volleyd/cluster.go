// Cluster mode: with -shards N volleyd runs a sharded monitoring cluster
// instead of a single sampling loop. Tasks are admitted, retuned and
// evicted at runtime over HTTP (POST/PATCH/DELETE /tasks), shards join and
// leave the placement ring (POST/DELETE /shards), and the observability
// endpoints grow cluster-wide views: /healthz reports per-shard readiness
// and the ring epoch, /metrics the volley_cluster_* instruments.
//
//	volleyd -shards 3 -interval 1s -listen :9464
//
//	curl -X POST :9464/tasks -d '{"name":"cpu","threshold":100,"err":0.05,
//	  "monitors":[{"id":"m0","source":"http://host-a/load"},
//	              {"id":"m1","source":"http://host-b/load"}]}'
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"volley"
)

// clusterTaskRequest is the POST /tasks body.
type clusterTaskRequest struct {
	Name      string  `json:"name"`
	Threshold float64 `json:"threshold"`
	Direction string  `json:"direction,omitempty"`
	Err       float64 `json:"err"`
	// MaxInterval bounds each monitor's adaptive interval (units of the
	// daemon's -interval). Zero means the daemon's -max-interval.
	MaxInterval int                     `json:"maxInterval,omitempty"`
	Monitors    []clusterMonitorRequest `json:"monitors"`
	// Gate correlation-gates the task on another admitted task: its
	// monitors sample at the relaxed interval until the predictor's
	// monitors observe a local violation.
	Gate *clusterGateRequest `json:"gate,omitempty"`
}

// clusterGateRequest correlation-gates an admitted task (DESIGN.md §16):
// while the predictor task is quiet, every monitor of the gated task
// stretches to RelaxedInterval; a local violation on any of the
// predictor's monitors arms the gates for HoldDown ticks and wakes the
// gated monitors so they sample immediately. The predictor must already be
// admitted and hosted here, and must not itself be gated (no gate chains,
// matching BuildMonitoringPlan). Evicting a predictor leaves its
// dependents permanently relaxed.
type clusterGateRequest struct {
	// Predictor names the admitted task whose local violations arm the gate.
	Predictor string `json:"predictor"`
	// RelaxedInterval is the quiet-time sampling interval in units of the
	// daemon's -interval; zero means 4× the task's max interval.
	RelaxedInterval int `json:"relaxedInterval,omitempty"`
	// HoldDown is how many ticks a predictor violation keeps the task at
	// its fully adaptive interval; zero means 10.
	HoldDown int `json:"holdDown,omitempty"`
}

// clusterMonitorRequest is one monitor of an admitted task: an ID unique
// within the task and a signal source in -source syntax.
type clusterMonitorRequest struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

// taskAdmission is a validated POST /tasks body, shared by both cluster
// modes.
type taskAdmission struct {
	spec        volley.ClusterTaskSpec    // Monitors holds the addresses <name>/mon/<id>
	maxInterval int                       // the request's, or the daemon's -max-interval
	agents      []func() (float64, error) // index-aligned with spec.Monitors
}

// validateTask checks a POST /tasks body and builds one agent per monitor,
// so a bad source rejects the whole admission before any cluster state is
// touched. defMaxInterval stands in for an unset maxInterval.
func validateTask(req clusterTaskRequest, defMaxInterval int) (taskAdmission, error) {
	if len(req.Monitors) == 0 {
		return taskAdmission{}, fmt.Errorf("task %q has no monitors", req.Name)
	}
	dir, err := parseDirection(req.Direction)
	if err != nil {
		return taskAdmission{}, err
	}
	a := taskAdmission{
		spec: volley.ClusterTaskSpec{
			Name:      req.Name,
			Threshold: req.Threshold,
			Direction: dir,
			Err:       req.Err,
			Monitors:  make([]string, len(req.Monitors)),
		},
		maxInterval: req.MaxInterval,
		agents:      make([]func() (float64, error), len(req.Monitors)),
	}
	if a.maxInterval == 0 {
		a.maxInterval = defMaxInterval
	}
	seen := make(map[string]bool, len(req.Monitors))
	for i, m := range req.Monitors {
		if m.ID == "" || seen[m.ID] {
			return taskAdmission{}, fmt.Errorf("monitor ID %q empty or duplicate", m.ID)
		}
		seen[m.ID] = true
		if a.agents[i], err = buildAgent(m.Source); err != nil {
			return taskAdmission{}, err
		}
		a.spec.Monitors[i] = req.Name + "/mon/" + m.ID
	}
	return a, nil
}

// hostedMonitorConfig configures monitor i of an admitted task, hosted on
// network and reporting to coord. The local task decomposition is an even
// split of the global threshold and allowance; the coordinator re-tunes
// the allowance shares from yield reports as the run learns.
func (d *daemon) hostedMonitorConfig(a taskAdmission, i int, network volley.Network, coord string) volley.MonitorConfig {
	n := float64(len(a.spec.Monitors))
	return volley.MonitorConfig{
		ID:    a.spec.Monitors[i],
		Task:  a.spec.Name,
		Agent: volley.AgentFunc(a.agents[i]),
		Sampler: volley.SamplerConfig{
			Threshold:   a.spec.Threshold / n,
			Direction:   a.spec.Direction,
			Err:         a.spec.Err / n,
			MaxInterval: a.maxInterval,
		},
		Network:        network,
		Coordinator:    coord,
		YieldEvery:     100,
		HeartbeatEvery: 10,
		Metrics:        d.reg,
		Tracer:         d.tracer,
		Alerts:         d.alertReg,
	}
}

// clusterUpdateRequest is the PATCH /tasks/{name} body. Exactly one of
// Threshold and Selectivity drives the retune: with Selectivity k set, the
// daemon derives each monitor's local threshold from its live streaming
// sketch — the (100−k)-th percentile of everything that monitor has
// sampled since admission — and the global threshold as their sum, no
// history replay needed.
type clusterUpdateRequest struct {
	Threshold   float64 `json:"threshold"`
	Err         float64 `json:"err"`
	Selectivity float64 `json:"selectivity,omitempty"`
}

// clusterSelectivityGrid sizes each hosted monitor's streaming sketch: the
// marker bank tracks these selectivities (percent) exactly, and PATCH may
// ask any k in (0, 100) with interpolation between grid points.
var clusterSelectivityGrid = []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}

// clusterDaemon owns the cluster-mode runtime: the federation, the
// monitors it hosts for admitted tasks, and the virtual clock the driver
// loop advances.
type clusterDaemon struct {
	*daemon
	net      *volley.MemoryNetwork
	cl       *volley.Cluster
	alerts   *volley.Counter
	gateArms *volley.Counter

	mu   sync.Mutex
	mons map[string][]*volley.Monitor // task name → hosted monitors
	step uint64                       // virtual ticks elapsed

	// Correlation gating state (guarded by mu). gates is index-aligned
	// with mons for the same task. After construction, gates are only
	// touched from the tick loop goroutine — Monitor.Tick drives
	// Tick/Interval while ticking, and the loop's fan-out drives
	// Armed/Signal afterwards — so Gate's single-goroutine contract holds.
	gates       map[string][]*volley.Gate // gated task → per-monitor gates
	gatePred    map[string]string         // gated task → predictor task
	predTargets map[string][]string       // predictor task → gated dependents

	// skMu guards sketches — both the map and the trackers' contents. The
	// tick loop feeds sampled values in, PATCH /tasks reads thresholds out,
	// and the volley_series_resident_bytes / volley_sketch_* instruments
	// read footprint and mode at scrape time. skMu is always innermost
	// (taken with mu or the registry lock held, never the reverse), so the
	// scrape path (registry lock → skMu) cannot deadlock against admission
	// (mu → registry lock → skMu).
	skMu     sync.Mutex
	sketches map[string][]*volley.StreamingThresholds // task name → per-monitor trackers
}

// now is the virtual clock position of the last completed tick, the time
// base alert lifecycle operations from HTTP handlers are stamped with.
func (d *clusterDaemon) now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.step == 0 {
		return 0
	}
	return time.Duration(d.step-1) * d.opts.interval
}

// runCluster is cluster-mode main: it builds the federation on the shared
// runtime, serves the control plane and drives the tick loop until the
// context ends.
func runCluster(ctx context.Context, opts options) error {
	if opts.interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	if opts.maxInterval < 1 {
		return fmt.Errorf("max-interval must be at least 1, got %d", opts.maxInterval)
	}
	spec := daemonSpec{node: "volleyd", tracerCap: 4096, requireListen: true}
	return runDaemon(ctx, opts, spec, newClusterMode)
}

// newClusterMode builds the federation and its instruments on the shared
// runtime.
func newClusterMode(base *daemon) (mode, error) {
	opts := base.opts
	d := &clusterDaemon{
		daemon:      base,
		net:         volley.NewMemoryNetwork(),
		mons:        make(map[string][]*volley.Monitor),
		sketches:    make(map[string][]*volley.StreamingThresholds),
		gates:       make(map[string][]*volley.Gate),
		gatePred:    make(map[string]string),
		predTargets: make(map[string][]string),
	}
	d.alerts = d.reg.Counter("volleyd_alerts_total", "State alerts raised across all cluster tasks.")
	d.gateArms = d.reg.Counter("volley_cluster_gate_arms_total",
		"Correlation gates armed by predictor violations (transitions from relaxed to adaptive).")
	// Bounded-memory threshold instrumentation: the sketches' total
	// footprint stays O(1) per monitor no matter how long the daemon runs —
	// this gauge is the live proof — and the mode/fallback counters show
	// when a stream defeated the P² marker bank.
	d.reg.GaugeFunc("volley_series_resident_bytes",
		"Total resident bytes of the live per-monitor streaming threshold sketches.",
		func() float64 { resident, _, _, _, _ := d.sketchStats(); return float64(resident) })
	d.reg.GaugeFunc("volley_sketch_series",
		"Live streaming threshold sketches (one per hosted monitor).",
		func() float64 { _, series, _, _, _ := d.sketchStats(); return float64(series) })
	d.reg.GaugeFunc("volley_sketch_gk_mode_series",
		"Sketches that permanently fell back from the P2 marker bank to the GK summary.",
		func() float64 { _, _, gk, _, _ := d.sketchStats(); return float64(gk) })
	d.reg.CounterFunc("volley_sketch_fallbacks_total",
		"P2-to-GK fallbacks across all live sketches.",
		func() float64 { _, _, _, fb, _ := d.sketchStats(); return float64(fb) })
	d.reg.CounterFunc("volley_sketch_rejected_total",
		"Non-finite sampled values rejected by the streaming sketches.",
		func() float64 { _, _, _, _, rej := d.sketchStats(); return float64(rej) })

	shards := make([]string, opts.shards)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	enc := json.NewEncoder(opts.out)
	var encMu sync.Mutex
	cl, err := volley.NewCluster(volley.ClusterConfig{
		Name:    "volleyd",
		Shards:  shards,
		Network: d.net,
		Metrics: d.reg,
		Tracer:  d.tracer,
		Alerts:  d.alertReg,
		OnAlert: func(task string, now time.Duration, total float64) {
			d.alerts.Inc()
			encMu.Lock()
			defer encMu.Unlock()
			_ = enc.Encode(map[string]any{
				"time": time.Now(), "kind": "alert", "task": task,
				"value": total, "at": now.String(),
			})
		},
	})
	if err != nil {
		return mode{}, err
	}
	d.cl = cl
	return mode{status: d.status, now: d.now, routes: d.routes, loop: d.loop}, nil
}

// loop advances the cluster and every hosted monitor once per -interval on
// a virtual clock (tick count × interval), the same time base the
// simulation harness uses, so wall-clock jitter never skews liveness
// horizons.
func (d *clusterDaemon) loop(ctx context.Context) error {
	ticker := time.NewTicker(d.opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		d.mu.Lock()
		now := time.Duration(d.step) * d.opts.interval
		d.step++
		mons := make([]*volley.Monitor, 0, len(d.mons)*2)
		names := make([]string, 0, len(d.mons)*2)
		sks := make([]*volley.StreamingThresholds, 0, len(d.mons)*2)
		d.skMu.Lock()
		for name, ms := range d.mons {
			mons = append(mons, ms...)
			for range ms {
				names = append(names, name)
			}
			sks = append(sks, d.sketches[name]...)
		}
		d.skMu.Unlock()
		gating := len(d.predTargets) > 0
		d.mu.Unlock()
		d.cl.Tick(now)
		values := make([]float64, len(mons))
		fed := make([]bool, len(mons))
		for i, m := range mons {
			// Agent failures are retried at the next interval and already
			// counted in the monitor's own stats.
			sampled, v, err := m.Tick(now)
			fed[i] = sampled && err == nil
			values[i] = v
		}
		// Feed the sampled values into the monitors' streaming sketches in
		// one batch, after all (possibly slow) agent reads are done, so the
		// sketch lock is never held across network I/O.
		d.skMu.Lock()
		for i, sk := range sks {
			if fed[i] {
				sk.Observe(values[i])
			}
		}
		d.skMu.Unlock()
		if gating {
			d.fanOutGateSignals(mons, names, values, fed)
		}
	}
}

// fanOutGateSignals arms the correlation gates of every task whose
// predictor observed a local violation this tick: the gates hold down at
// the adaptive interval and monitors still relaxed are woken so they
// sample on the very next tick instead of finishing a stretched-out
// countdown first (the scheduler's predictor-wakes-target semantics,
// applied across admitted tasks).
func (d *clusterDaemon) fanOutGateSignals(mons []*volley.Monitor, names []string, values []float64, fed []bool) {
	violated := make(map[string]bool)
	for i, m := range mons {
		if fed[i] && m.Violates(values[i]) {
			violated[names[i]] = true
		}
	}
	if len(violated) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for pred := range violated {
		for _, tgt := range d.predTargets[pred] {
			tmons := d.mons[tgt]
			for j, g := range d.gates[tgt] {
				if !g.Armed() {
					d.gateArms.Inc()
					if j < len(tmons) {
						tmons[j].Wake()
					}
				}
				g.Signal(true)
			}
		}
	}
}

// sketchStats snapshots the live sketches for the scrape-time instruments:
// total resident bytes, tracker count, trackers in GK-fallback mode, and
// the fallback/rejection totals.
func (d *clusterDaemon) sketchStats() (resident int, series, gk int, fallbacks, rejected uint64) {
	d.skMu.Lock()
	defer d.skMu.Unlock()
	for _, sks := range d.sketches {
		for _, sk := range sks {
			resident += sk.ResidentBytes()
			series++
			if sk.Mode() == volley.SketchModeGK {
				gk++
			}
			fallbacks += sk.Fallbacks()
			rejected += sk.Rejected()
		}
	}
	return resident, series, gk, fallbacks, rejected
}

// status is the /healthz (and expvar) payload: cluster-wide state plus
// per-shard readiness and the ring epoch.
func (d *clusterDaemon) status() map[string]any {
	st := d.cl.Stats()
	return map[string]any{
		"status":         "ok",
		"mode":           "cluster",
		"uptime_seconds": d.uptime().Seconds(),
		"ring_epoch":     st.RingEpoch,
		"shards":         d.cl.Shards(),
		"tasks":          st.Tasks,
		"alerts":         d.alerts.Value(),
		"handoffs":       st.Handoffs,
	}
}

// routes wires the cluster control plane onto the shared HTTP surface.
func (d *clusterDaemon) routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, d.cl.Tasks())
	})
	mux.HandleFunc("POST /tasks", d.handleAdmit)
	mux.HandleFunc("PATCH /tasks/{name}", d.handleUpdate)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleEvict)
	mux.HandleFunc("POST /shards", d.handleShardJoin)
	mux.HandleFunc("DELETE /shards/{id}", d.handleShardDrop)
}

// handleAdmit admits a task: its monitors are built from the requested
// sources and hosted by the daemon, its coordinator placed on the owning
// shard.
func (d *clusterDaemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req clusterTaskRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	a, err := validateTask(req, d.opts.maxInterval)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	addrs := a.spec.Monitors

	d.mu.Lock()
	defer d.mu.Unlock()
	// Validate and build the correlation gates before touching cluster
	// state, so a bad gate spec rejects the whole admission with nothing to
	// roll back.
	var gs []*volley.Gate
	if req.Gate != nil {
		pred := req.Gate.Predictor
		switch {
		case pred == "":
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: gate needs a predictor task", req.Name))
			return
		case pred == req.Name:
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q cannot gate on itself", req.Name))
			return
		case len(d.mons[pred]) == 0:
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: gate predictor %q is not admitted here", req.Name, pred))
			return
		}
		if _, chained := d.gatePred[pred]; chained {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("task %q: predictor %q is itself gated (gate chains are not allowed)", req.Name, pred))
			return
		}
		relaxed := req.Gate.RelaxedInterval
		if relaxed == 0 {
			relaxed = 4 * a.maxInterval
		}
		hold := req.Gate.HoldDown
		if hold == 0 {
			hold = 10
		}
		gs = make([]*volley.Gate, len(addrs))
		for i := range gs {
			g, err := volley.NewGate(relaxed, hold)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: %w", req.Name, err))
				return
			}
			gs[i] = g
		}
	}
	shard, err := d.cl.Admit(a.spec)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	mons := make([]*volley.Monitor, len(addrs))
	for i := range addrs {
		cfg := d.hostedMonitorConfig(a, i, d.net, d.cl.CoordinatorAddr(req.Name))
		if gs != nil {
			// Assign through the concrete slice only when gated: a nil
			// *Gate stored in the interface field would be a non-nil
			// IntervalGate and the monitor would call through it.
			cfg.Gate = gs[i]
		}
		mons[i], err = volley.NewMonitor(cfg)
		if err != nil {
			// Roll the half-admitted task back so the request is atomic.
			for _, a := range addrs[:i] {
				_ = d.net.Deregister(a)
			}
			_ = d.cl.Evict(req.Name)
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	// One streaming sketch per monitor, fed from its sampled ticks; index-
	// aligned with d.mons[name] (the tick loop and PATCH rely on that).
	sks := make([]*volley.StreamingThresholds, len(addrs))
	for i := range sks {
		sk, err := volley.NewStreamingThresholds(clusterSelectivityGrid)
		if err != nil {
			for _, a := range addrs {
				_ = d.net.Deregister(a)
			}
			_ = d.cl.Evict(req.Name)
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		sks[i] = sk
	}
	d.mons[req.Name] = mons
	d.skMu.Lock()
	d.sketches[req.Name] = sks
	d.skMu.Unlock()
	resp := map[string]any{
		"name": req.Name, "shard": shard,
		"coordinator": d.cl.CoordinatorAddr(req.Name), "monitors": addrs,
	}
	if gs != nil {
		d.gates[req.Name] = gs
		d.gatePred[req.Name] = req.Gate.Predictor
		d.predTargets[req.Gate.Predictor] = append(d.predTargets[req.Gate.Predictor], req.Name)
		resp["gate"] = map[string]any{"predictor": req.Gate.Predictor}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// handleUpdate retunes a task's threshold and allowance: the cluster
// rescales the coordinator's allowance state and the daemon re-splits the
// hosted monitors' local thresholds. With "selectivity" set instead of a
// threshold, the new thresholds come from the monitors' live streaming
// sketches: monitor i's local threshold becomes the (100−k)-th percentile
// of everything it has sampled, and the global threshold their sum —
// selectivity-based task creation (the paper's methodology) applied at
// runtime, with no retained history to replay.
func (d *clusterDaemon) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req clusterUpdateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Selectivity != 0 {
		d.updateFromSelectivity(w, name, req)
		return
	}
	if err := d.cl.Update(name, req.Threshold, req.Err); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	mons := d.mons[name]
	for _, m := range mons {
		if err := m.SetLocalThreshold(req.Threshold / float64(len(mons))); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// updateFromSelectivity is the sketch-driven branch of PATCH /tasks/{name};
// the caller holds d.mu. It answers 200 with the derived thresholds so the
// operator sees what the retune resolved to.
func (d *clusterDaemon) updateFromSelectivity(w http.ResponseWriter, name string, req clusterUpdateRequest) {
	if req.Threshold != 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("task %q: threshold and selectivity are mutually exclusive", name))
		return
	}
	mons := d.mons[name]
	if len(mons) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("task %q not hosted here", name))
		return
	}
	d.skMu.Lock()
	sks := d.sketches[name]
	locals := make([]float64, len(sks))
	samples := make([]int, len(sks))
	var total float64
	var derr error
	for i, sk := range sks {
		locals[i], derr = sk.Threshold(req.Selectivity)
		if derr != nil {
			break
		}
		samples[i] = sk.N()
		total += locals[i]
	}
	d.skMu.Unlock()
	if derr != nil {
		// Covers both an out-of-domain k and a monitor that has not sampled
		// yet (no data to derive a percentile from).
		httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: %w", name, derr))
		return
	}
	if err := d.cl.Update(name, total, req.Err); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for i, m := range mons {
		if err := m.SetLocalThreshold(locals[i]); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": name, "selectivity": req.Selectivity, "err": req.Err,
		"threshold": total, "localThresholds": locals, "samples": samples,
	})
}

// handleEvict removes a task and the monitors hosted for it.
func (d *clusterDaemon) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d.mu.Lock()
	defer d.mu.Unlock()
	var addrs []string
	for _, ti := range d.cl.Tasks() {
		if ti.Spec.Name == name {
			addrs = ti.Spec.Monitors
		}
	}
	if err := d.cl.Evict(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	for _, a := range addrs {
		_ = d.net.Deregister(a)
	}
	delete(d.mons, name)
	// Gating cleanup. If the evicted task was gated, unlink it from its
	// predictor. If it was a predictor, its dependents keep their gates but
	// nothing arms them anymore: they sample at the relaxed interval until
	// they are themselves evicted (documented on clusterGateRequest).
	delete(d.gates, name)
	if pred, ok := d.gatePred[name]; ok {
		delete(d.gatePred, name)
		tgts := d.predTargets[pred]
		for i, t := range tgts {
			if t == name {
				d.predTargets[pred] = append(tgts[:i], tgts[i+1:]...)
				break
			}
		}
		if len(d.predTargets[pred]) == 0 {
			delete(d.predTargets, pred)
		}
	}
	for _, tgt := range d.predTargets[name] {
		delete(d.gatePred, tgt)
	}
	delete(d.predTargets, name)
	d.skMu.Lock()
	delete(d.sketches, name)
	d.skMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleShardJoin adds a shard to the ring.
func (d *clusterDaemon) handleShardJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := d.cl.AddShard(req.ID); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShardDrop removes a shard; ?mode=crash records an ungraceful loss
// instead of a drain (the stats and trace tell them apart).
func (d *clusterDaemon) handleShardDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	drop := d.cl.RemoveShard
	if r.URL.Query().Get("mode") == "crash" {
		drop = d.cl.CrashShard
	}
	if err := drop(id); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
