package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"volley/internal/alerts"
	"volley/internal/cluster"
	"volley/internal/core"
	"volley/internal/correlation"
	"volley/internal/monitor"
	"volley/internal/obs"
	"volley/internal/task"
	"volley/internal/transport"
)

// interval is the fleet's default sampling interval on the virtual clock.
const interval = time.Second

// selectivityGrid sizes each monitor's streaming sketch, as volleyd's
// cluster mode does.
var selectivityGrid = []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}

// taskDef is one generated monitoring task: everything admission needs,
// plus the ground truth the output checks compare alerts against.
type taskDef struct {
	name        string
	threshold   float64
	err         float64
	maxInterval int
	addrs       []string    // monitor addresses
	series      [][]float64 // per monitor, one value per window
	locals      []float64   // per-monitor local thresholds
	global      []float64   // true global value per window
	offset      int         // phase offset into the series
	pred        int         // index of the predictor task, or -1
	relaxed     int         // gate relaxed interval
	hold        int         // gate hold-down
	churn       bool        // eligible for evict/re-admit/update churn
	altErr      float64     // the allowance Update toggles to
}

// globalAt is the task's true global value at fleet window w.
func (d *taskDef) globalAt(w int) float64 {
	return d.global[(w+d.offset)%len(d.global)]
}

// planeWorkload is a data-plane workload: a Cluster over the Memory fabric
// with hosted monitors, driven in closed-loop rounds.
type planeWorkload struct {
	name   string
	shards int
	defs   []taskDef
	// checkRounds is the round count over which the virtual-clock counts
	// are taken (and compared between two fleets built from one seed).
	checkRounds int
	// warmup rounds run before tick timing starts.
	warmup int
	// setups is how many fleets are built to time set-up.
	setups int
	// churnSeed seeds the evict/re-admit/update schedule; zero turns
	// churn off.
	churnSeed int64
	genTime   time.Duration
}

// liveTask is an admitted task's hosted data plane, index-aligned with
// its taskDef's monitors.
type liveTask struct {
	mons    []*monitor.Monitor
	gates   []*correlation.Gate
	sks     []*task.StreamingThresholds
	start   []int // round at which each monitor starts ticking
	sampled []bool
	values  []float64
	err     float64 // current task allowance (Update toggles it)
}

// alertRec is one OnAlert call.
type alertRec struct {
	task  int
	step  int
	total float64
}

// counts are the virtual-clock counters of a fleet. Two fleets built from
// one seed and driven the same number of rounds must agree exactly.
type counts struct {
	rounds       int
	monitorTicks uint64
	samples      uint64
	pollSamples  uint64
	agentReads   uint64
	fabricMsgs   uint64
	alerts       uint64
	windows      uint64 // locally violating monitor windows
	missed       uint64 // … of which the monitor's own sampling skipped
	episodes     uint64
	detected     uint64
	delaySum     uint64
	gateArms     uint64
	raised       uint64
	deduped      uint64
	resolved     uint64
	admissions   uint64
	evictions    uint64
	updates      uint64
	polls        uint64
	globalAlerts uint64
}

// fleet is one built instance of a data-plane workload.
type fleet struct {
	w        *planeWorkload
	rec      *recorder
	mem      *transport.Memory
	net      memoryNet
	traced   *tracedNet
	metrics  *obs.Registry
	tracer   *obs.Tracer
	alertReg *alerts.Registry
	cl       *cluster.Cluster
	live     []*liveTask
	byName   map[string]int
	deps     [][]int // predictor task → gated tasks
	window   int     // current round; 0 during set-up
	built    int     // monitors built during set-up
	reads    uint64
	retired  monitor.Stats
	alertLog []alertRec
	churnRng *rand.Rand

	// Episode tracking per task.
	inEp    []bool
	epStart []int
	epAlert []bool
	delays  []float64

	admitDur []time.Duration
	failed   []string // operations that returned an error
	checks   []string // output-check failures
	c        counts

	gateCalls, gateRelaxed uint64

	idRound, idAdmit, idClusterAdmit, idClusterTick, idClusterEvict, idClusterUpdate int
	idMonTick, idMonNew, idSketch, idGate, idAgent                                   int
}

// newFleet builds the fleet: the cluster, then every task admitted in
// definition order. It returns the fleet and the set-up wall time.
func newFleet(w *planeWorkload, rec *recorder) (*fleet, time.Duration, error) {
	f := &fleet{
		w:        w,
		rec:      rec,
		byName:   make(map[string]int, len(w.defs)),
		deps:     make([][]int, len(w.defs)),
		live:     make([]*liveTask, len(w.defs)),
		inEp:     make([]bool, len(w.defs)),
		epStart:  make([]int, len(w.defs)),
		epAlert:  make([]bool, len(w.defs)),
		churnRng: rand.New(rand.NewSource(w.churnSeed)),
	}
	f.idRound = rec.id("driver.round", true)
	f.idAdmit = rec.id("driver.admit", false)
	f.idClusterAdmit = rec.id("cluster.admit", true)
	f.idClusterTick = rec.id("cluster.tick", false)
	f.idClusterEvict = rec.id("cluster.evict", false)
	f.idClusterUpdate = rec.id("cluster.update", false)
	f.idMonTick = rec.id("monitor.tick", false)
	f.idMonNew = rec.id("monitor.new", false)
	f.idSketch = rec.id("sketch.observe", false)
	f.idGate = rec.id("gate", false)
	f.idAgent = rec.id("agent.sample", false)
	for i := range w.defs {
		f.byName[w.defs[i].name] = i
		if p := w.defs[i].pred; p >= 0 {
			f.deps[p] = append(f.deps[p], i)
		}
	}

	start := time.Now()
	f.mem = transport.NewMemory()
	f.net = f.mem
	if rec.on.Load() {
		f.traced = newTracedNet(f.mem, rec)
		f.net = f.traced
	}
	f.metrics = obs.NewRegistry()
	f.tracer = obs.NewTracer(4096)
	f.alertReg = alerts.New(alerts.Config{Node: w.name, Metrics: f.metrics, Tracer: f.tracer})
	shards := make([]string, w.shards)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	cl, err := cluster.New(cluster.Config{
		Name:    w.name,
		Shards:  shards,
		Network: f.net,
		Alerts:  f.alertReg,
		Metrics: f.metrics,
		Tracer:  f.tracer,
		OnAlert: func(name string, now time.Duration, total float64) {
			f.alertLog = append(f.alertLog, alertRec{task: f.byName[name], step: int(now / interval), total: total})
		},
	})
	if err != nil {
		return nil, 0, err
	}
	f.cl = cl
	for i := range w.defs {
		if err := f.admit(i); err != nil {
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// admit admits task i the way volleyd's POST /tasks does: the cluster
// places the task and starts its coordinator, then the task's monitors
// (with their gates and streaming sketches) are built on the fabric.
func (f *fleet) admit(i int) error {
	d := &f.w.defs[i]
	start := time.Now()
	f.rec.begin(f.idAdmit)
	defer f.rec.end()
	lt := &liveTask{
		mons:    make([]*monitor.Monitor, len(d.addrs)),
		sks:     make([]*task.StreamingThresholds, len(d.addrs)),
		start:   make([]int, len(d.addrs)),
		sampled: make([]bool, len(d.addrs)),
		values:  make([]float64, len(d.addrs)),
		err:     d.err,
	}
	if old := f.live[i]; old != nil {
		// Re-admission by churn, after this round's advance: keep what the
		// evicted monitors sampled this round for the round's accounting.
		lt.err = old.err
		copy(lt.sampled, old.sampled)
		copy(lt.values, old.values)
	}
	f.rec.begin(f.idClusterAdmit)
	_, err := f.cl.Admit(cluster.TaskSpec{Name: d.name, Threshold: d.threshold, Err: lt.err, Monitors: d.addrs})
	f.rec.end()
	if err != nil {
		return fmt.Errorf("admit %s: %w", d.name, err)
	}
	n := float64(len(d.addrs))
	coordAddr := f.cl.CoordinatorAddr(d.name)
	if d.pred >= 0 {
		lt.gates = make([]*correlation.Gate, len(d.addrs))
	}
	for m, addr := range d.addrs {
		cfg := monitor.Config{
			ID:   addr,
			Task: d.name,
			Agent: &seriesAgent{
				values: d.series[m], offset: d.offset, window: &f.window, reads: &f.reads,
				rec: f.rec, id: f.idAgent,
			},
			Sampler: core.Config{
				Threshold:   d.locals[m],
				Err:         lt.err / n,
				MaxInterval: d.maxInterval,
			},
			Network:        f.net,
			Coordinator:    coordAddr,
			YieldEvery:     100,
			HeartbeatEvery: 10,
			Metrics:        f.metrics,
			Tracer:         f.tracer,
			Alerts:         f.alertReg,
		}
		if lt.gates != nil {
			g, err := correlation.NewGate(d.relaxed, d.hold)
			if err != nil {
				return err
			}
			lt.gates[m] = g
			cfg.Gate = g
			if f.rec.on.Load() {
				cfg.Gate = &tracedGate{g: g, rec: f.rec, id: f.idGate, calls: &f.gateCalls, relaxed: &f.gateRelaxed}
			}
		}
		sk, err := task.NewStreamingThresholds(selectivityGrid)
		if err != nil {
			return err
		}
		lt.sks[m] = sk
		f.rec.begin(f.idMonNew)
		lt.mons[m], err = monitor.New(cfg)
		f.rec.end()
		if err != nil {
			return fmt.Errorf("admit %s: %w", d.name, err)
		}
		if f.window == 0 {
			// Set-up builds every monitor at once. Starting them at
			// staggered warm-up rounds spreads their heartbeat and
			// yield-report periods, as admissions spread over time would;
			// otherwise every 100th round carries every yield report.
			lt.start[m] = 1 + f.built%f.w.warmup
			f.built++
		}
	}
	f.live[i] = lt
	f.admitDur = append(f.admitDur, time.Since(start))
	f.c.admissions++
	return nil
}

// evict removes task i the way volleyd's DELETE /tasks does, keeping its
// monitors' counters for the fleet totals.
func (f *fleet) evict(i int) error {
	d := &f.w.defs[i]
	f.rec.begin(f.idClusterEvict)
	err := f.cl.Evict(d.name)
	f.rec.end()
	if err != nil {
		return fmt.Errorf("evict %s: %w", d.name, err)
	}
	f.c.evictions++
	lt := f.live[i]
	for m, mon := range lt.mons {
		st := mon.Stats()
		f.retired.Ticks += st.Ticks
		f.retired.Samples += st.Samples
		f.retired.PollSamples += st.PollSamples
		if lt.gates != nil {
			f.c.gateArms += lt.gates[m].Arms()
		}
		if err := f.mem.Deregister(d.addrs[m]); err != nil {
			return fmt.Errorf("evict %s: %w", d.name, err)
		}
	}
	return nil
}

// round advances the whole fleet one default interval: the cluster ticks
// every coordinator, every monitor ticks in definition order, sampled
// values feed the streaming sketches, and predictor violations arm the
// gates of their dependents. It returns the wall time of the advance;
// churn, if any, follows it within the round but outside that time.
func (f *fleet) round(step int) time.Duration {
	f.window = step
	now := time.Duration(step) * interval
	f.rec.setRound(uint64(step))
	start := time.Now()
	f.rec.begin(f.idRound)
	f.rec.begin(f.idClusterTick)
	f.cl.Tick(now)
	f.rec.end()
	for _, lt := range f.live {
		for m, mon := range lt.mons {
			if step < lt.start[m] {
				lt.sampled[m] = false
				continue
			}
			f.rec.begin(f.idMonTick)
			sampled, v, err := mon.Tick(now)
			f.rec.end()
			lt.sampled[m] = sampled && err == nil
			lt.values[m] = v
		}
	}
	for _, lt := range f.live {
		for m, sk := range lt.sks {
			if lt.sampled[m] {
				f.rec.begin(f.idSketch)
				sk.Observe(lt.values[m])
				f.rec.end()
			}
		}
	}
	for p, deps := range f.deps {
		if len(deps) == 0 || !f.violated(p) {
			continue
		}
		for _, t := range deps {
			lt := f.live[t]
			for m, g := range lt.gates {
				f.rec.begin(f.idGate)
				if !g.Armed() {
					lt.mons[m].Wake()
				}
				g.Signal(true)
				f.rec.end()
			}
		}
	}
	tick := time.Since(start)
	f.churn()
	f.rec.end()
	return tick
}

// violated reports whether any monitor of task p sampled a local violation
// this round.
func (f *fleet) violated(p int) bool {
	lt := f.live[p]
	for m, mon := range lt.mons {
		if lt.sampled[m] && mon.Violates(lt.values[m]) {
			return true
		}
	}
	return false
}

// churn applies the seeded control-plane churn: one eligible task is
// evicted and re-admitted, and one has its allowance retuned.
func (f *fleet) churn() {
	if f.w.churnSeed == 0 {
		return
	}
	n := len(f.w.defs)
	i := f.churnRng.Intn(n)
	if f.w.defs[i].churn {
		if err := f.evict(i); err != nil {
			f.failed = append(f.failed, err.Error())
		} else if err := f.admit(i); err != nil {
			f.failed = append(f.failed, err.Error())
		}
	}
	j := f.churnRng.Intn(n)
	if d := &f.w.defs[j]; d.churn {
		lt := f.live[j]
		next := d.altErr
		if lt.err == d.altErr {
			next = d.err
		}
		f.rec.begin(f.idClusterUpdate)
		err := f.cl.Update(d.name, d.threshold, next)
		f.rec.end()
		if err != nil {
			f.failed = append(f.failed, fmt.Sprintf("update %s: %v", d.name, err))
		} else {
			lt.err = next
			f.c.updates++
		}
	}
}

// account does the round's ground-truth bookkeeping, outside any timing:
// window-level misdetection, episodes, and the alerts raised this round.
func (f *fleet) account(step int) {
	f.c.rounds++
	for i := range f.w.defs {
		d := &f.w.defs[i]
		lt := f.live[i]
		for m, s := range d.series {
			if step >= lt.start[m] && s[(step+d.offset)%len(s)] > d.locals[m] {
				f.c.windows++
				if !lt.sampled[m] {
					f.c.missed++
				}
			}
		}
		truth := d.globalAt(step) > d.threshold
		switch {
		case truth && !f.inEp[i]:
			f.inEp[i], f.epStart[i], f.epAlert[i] = true, step, false
			f.c.episodes++
		case !truth:
			f.inEp[i] = false
		}
	}
	for _, a := range f.alertLog {
		d := &f.w.defs[a.task]
		g := d.globalAt(a.step)
		f.c.alerts++
		if !(g > d.threshold) || math.Abs(a.total-g) > 1e-9*math.Max(1, math.Abs(g)) || a.step != step {
			f.check(fmt.Sprintf("alert for %s at window %d: reported total %g, true global %g, threshold %g",
				d.name, a.step, a.total, g, d.threshold))
			continue
		}
		if f.inEp[a.task] && !f.epAlert[a.task] {
			f.epAlert[a.task] = true
			f.c.detected++
			delay := a.step - f.epStart[a.task]
			f.c.delaySum += uint64(delay)
			f.delays = append(f.delays, float64(delay))
		}
	}
	f.alertLog = f.alertLog[:0]
}

// check records an output-check failure (the first few verbatim).
func (f *fleet) check(msg string) {
	if len(f.checks) < 20 {
		f.checks = append(f.checks, msg)
	}
}

// checkAllowance verifies every task's assignments sum to at most its
// allowance.
func (f *fleet) checkAllowance() {
	for i := range f.w.defs {
		d := &f.w.defs[i]
		st, err := f.cl.AllowanceState(d.name)
		if err != nil {
			f.check(fmt.Sprintf("allowance of %s: %v", d.name, err))
			continue
		}
		sum := 0.0
		for _, e := range st.Assignments {
			sum += e
		}
		if errAllow := f.live[i].err; sum > errAllow*(1+1e-9)+1e-12 {
			f.check(fmt.Sprintf("task %s: assignments sum %g exceed allowance %g", d.name, sum, errAllow))
		}
	}
}

// snapshot completes the virtual-clock counts from the live monitors, the
// fabric and the alert registry.
func (f *fleet) snapshot() counts {
	c := f.c
	st := f.retired
	arms := c.gateArms
	for _, lt := range f.live {
		for m, mon := range lt.mons {
			s := mon.Stats()
			st.Ticks += s.Ticks
			st.Samples += s.Samples
			st.PollSamples += s.PollSamples
			if lt.gates != nil {
				arms += lt.gates[m].Arms()
			}
		}
	}
	c.monitorTicks, c.samples, c.pollSamples = st.Ticks, st.Samples, st.PollSamples
	c.gateArms = arms
	c.agentReads = f.reads
	c.fabricMsgs = f.mem.Stats().Sent
	cs := f.cl.Stats().Coord
	c.polls, c.globalAlerts = cs.Polls, cs.GlobalAlerts
	c.raised = f.counter("volley_alerts_raised_total")
	c.deduped = f.counter("volley_alerts_deduped_total")
	c.resolved = f.counter("volley_alerts_resolved_total")
	return c
}

func (f *fleet) counter(name string) uint64 { return f.metrics.Counter(name, "").Value() }

// openAlerts counts live alerts in the registry.
func (f *fleet) openAlerts() int {
	n := 0
	for _, a := range f.alertReg.List() {
		if a.Status == alerts.StatusOpen || a.Status == alerts.StatusAcked {
			n++
		}
	}
	return n
}

// sketchBytes totals the live sketches' resident bytes.
func (f *fleet) sketchBytes() int {
	n := 0
	for _, lt := range f.live {
		for _, sk := range lt.sks {
			n += sk.ResidentBytes()
		}
	}
	return n
}

// runtimeDelta is the allocation and GC activity over a stretch of rounds.
type runtimeDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

func (d *runtimeDelta) add(e runtimeDelta) {
	d.mallocs += e.mallocs
	d.bytes += e.bytes
	d.gcs += e.gcs
	d.pause += e.pause
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func delta(a, b runtime.MemStats) runtimeDelta {
	return runtimeDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     b.NumGC - a.NumGC,
		pause:   time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}
