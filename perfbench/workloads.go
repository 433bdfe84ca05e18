package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"volley/internal/workload"
)

// Workload sizes. Series are generated once per run, before any timer
// starts, and replayed cyclically when a run outlasts them.
const (
	tenantCount   = 4096
	tenantGroups  = 64
	tenantWindows = 1024

	entropyNodes   = 128
	entropyTasks   = 16
	entropyWindows = 4096
	// entropyStride staggers the tasks' phase offsets: distinct, so tasks
	// do not violate in lockstep, yet close enough that their attack
	// epochs overlap. Most rounds then see no attack and the median round
	// is a quiet one, while the overlapping epochs make the tail.
	entropyStride = 2

	// minPeriods is the least number of whole series periods a data-plane
	// run times. The tick percentiles are medians over periods, so that a
	// host stall that slows one period does not move them.
	minPeriods = 3
)

// tenantFleet builds the tenant-fleet workload: 64 group-aggregate
// predictor tasks and 4096 one-monitor tenant tasks on 4 shards. Even
// tenants are gated on their group's predictor (relaxed interval 40,
// hold-down 10); odd tenants are the ungated control. Every tenant is
// subject to churn.
func tenantFleet(seed int64) (*planeWorkload, error) {
	start := time.Now()
	set, err := workload.Generate(workload.DefaultTenantColo(tenantCount, tenantGroups, tenantWindows, seed))
	if err != nil {
		return nil, err
	}
	w := &planeWorkload{
		name:        "tenant-fleet",
		shards:      4,
		checkRounds: 600,
		warmup:      100,
		setups:      3,
		churnSeed:   seed*7919 + 1,
	}
	for g, agg := range set.Aggregates {
		name := fmt.Sprintf("agg-%02d", g)
		w.defs = append(w.defs, taskDef{
			name: name, threshold: agg.Threshold, err: agg.Err, maxInterval: 4,
			addrs:  []string{name + "/mon/m"},
			series: [][]float64{agg.Values}, locals: []float64{agg.Threshold}, global: agg.Values,
			pred: -1,
		})
	}
	for i, s := range set.Series {
		name, pred := fmt.Sprintf("tu-%04d", i), -1
		if i%2 == 0 {
			name, pred = fmt.Sprintf("tg-%04d", i), i%tenantGroups
		}
		w.defs = append(w.defs, taskDef{
			name: name, threshold: s.Threshold, err: s.Err, maxInterval: 10,
			addrs:  []string{name + "/mon/m"},
			series: [][]float64{s.Values}, locals: []float64{s.Threshold}, global: s.Values,
			pred: pred, relaxed: 40, hold: 10,
			churn: true, altErr: math.Min(2*s.Err, 0.5),
		})
	}
	w.genTime = time.Since(start)
	return w, nil
}

// entropyWide builds the entropy-wide workload: 16 tasks of 128 monitors
// each on 4 shards. One 128-node EntropyFlow set is generated and every
// task replays it at its own phase offset, so tasks do not violate in
// lockstep. Each task's global threshold comes from the aggregate series
// and each monitor keeps its node's local threshold.
func entropyWide(seed int64) (*planeWorkload, error) {
	start := time.Now()
	set, err := workload.Generate(workload.DefaultEntropyFlow(entropyNodes, entropyWindows, seed))
	if err != nil {
		return nil, err
	}
	w := &planeWorkload{
		name:        "entropy-wide",
		shards:      4,
		checkRounds: 1200,
		warmup:      100,
		setups:      24,
	}
	series := make([][]float64, len(set.Series))
	locals := make([]float64, len(set.Series))
	for i, s := range set.Series {
		series[i], locals[i] = s.Values, s.Threshold
	}
	for t := 0; t < entropyTasks; t++ {
		name := fmt.Sprintf("ent-%02d", t)
		addrs := make([]string, len(set.Series))
		for i, s := range set.Series {
			addrs[i] = name + "/mon/" + s.ID
		}
		w.defs = append(w.defs, taskDef{
			name: name, threshold: set.GlobalThreshold, err: set.GlobalErr,
			maxInterval: workload.DefaultEntropyFlow(entropyNodes, entropyWindows, seed).AttackLen,
			addrs:       addrs, series: series, locals: locals, global: set.Global,
			offset: t * entropyStride, pred: -1,
		})
	}
	w.genTime = time.Since(start)
	return w, nil
}

// planeRun is what one data-plane run measured.
type planeRun struct {
	setups    []time.Duration
	admits    []time.Duration
	ticks     []time.Duration // timed rounds of the measured fleet
	period    int             // series length: the rounds are timed in whole periods
	timedMsgs uint64          // fabric messages over those rounds
	tasks     int
	heapBytes float64
	counts    counts
	delays    []float64
	rt        runtimeDelta // untraced verification fleet, rounds 1..checkRounds
	rtRounds  int
	// Tick times over rounds (warmup, checkRounds] of the measured fleet
	// and of the untraced verification fleet, for the tracing overhead.
	checkTicksA, checkTicksB []float64
	failed                   []string
	checks                   []string
	attempted                int
	rec                      *recorder
	fleetA                   fleetStats
}

// fleetStats are end-of-run readings from the measured fleet.
type fleetStats struct {
	open, sketchBytes      int
	gateCalls, gateRelaxed uint64
	sends                  [maxKind]uint64
	sendErrors             uint64
}

// runPlane drives one data-plane run: fleet A is built (timed), warmed up,
// measured for the run's duration, and its counts taken at checkRounds;
// fleet B is built from the same inputs, driven untraced for checkRounds
// and must reproduce A's counts exactly; further fleets only time set-up.
func runPlane(w *planeWorkload, seconds time.Duration, trace bool, rawCap int) (*planeRun, error) {
	r := &planeRun{tasks: len(w.defs), rec: newRecorder(trace, rawCap)}
	countsA, err := r.measure(w, seconds)
	if err != nil {
		return nil, err
	}
	if err := r.verify(w, countsA); err != nil {
		return nil, err
	}
	for k := 2; k < w.setups; k++ {
		runtime.GC()
		c, setup, err := newFleet(w, newRecorder(false, 0))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		r.absorb(c)
	}
	return r, nil
}

// measure builds, warms up and times fleet A, returning its counts at
// round checkRounds. It times whole periods of the series, at least
// minPeriods: the rounds that carry a workload's bursts and attack epochs
// are then the same share of every run and of every period, however many
// rounds the host's speed lets the run's duration hold.
func (r *planeRun) measure(w *planeWorkload, seconds time.Duration) (counts, error) {
	runtime.GC()
	base := memStats().HeapAlloc
	a, setup, err := newFleet(w, r.rec)
	if err != nil {
		return counts{}, err
	}
	r.setups = append(r.setups, setup)
	step := 1
	for ; step <= w.warmup; step++ {
		a.round(step)
		a.account(step)
	}
	runtime.GC()
	r.heapBytes = float64(memStats().HeapAlloc) - float64(base)
	var c counts
	sent := a.mem.Stats().Sent
	begin := time.Now()
	r.period = len(w.defs[0].global)
	for ; step <= w.checkRounds || time.Since(begin) < seconds || step-1-w.warmup < minPeriods*r.period || (step-1-w.warmup)%r.period != 0; step++ {
		d := a.round(step)
		a.account(step)
		r.ticks = append(r.ticks, d)
		if step <= w.checkRounds {
			r.checkTicksA = append(r.checkTicksA, ms(d))
		}
		if step == w.checkRounds {
			c = a.snapshot()
			r.delays = append([]float64(nil), a.delays...)
			a.checkAllowance()
		}
	}
	a.checkAllowance()
	r.counts = c
	r.timedMsgs = a.mem.Stats().Sent - sent
	r.fleetA = fleetStats{
		open: a.openAlerts(), sketchBytes: a.sketchBytes(),
		gateCalls: a.gateCalls, gateRelaxed: a.gateRelaxed,
	}
	if a.traced != nil {
		r.fleetA.sends, r.fleetA.sendErrors = a.traced.sends, a.traced.errors
	}
	r.absorb(a)
	return c, nil
}

// verify drives fleet B, untraced, over the same checkRounds rounds and
// compares its counts with fleet A's.
func (r *planeRun) verify(w *planeWorkload, countsA counts) error {
	runtime.GC()
	b, setup, err := newFleet(w, newRecorder(false, 0))
	if err != nil {
		return err
	}
	r.setups = append(r.setups, setup)
	ms0 := memStats()
	for s := 1; s <= w.checkRounds; s++ {
		d := b.round(s)
		b.account(s)
		if s > w.warmup {
			r.checkTicksB = append(r.checkTicksB, ms(d))
		}
	}
	r.rt, r.rtRounds = delta(ms0, memStats()), w.checkRounds
	countsB := b.snapshot()
	b.checkAllowance()
	if countsA != countsB {
		r.checks = append(r.checks, fmt.Sprintf("virtual-clock counts differ between two fleets of one seed:\n  A %+v\n  B %+v", countsA, countsB))
	}
	if c := countsB; c.agentReads != c.samples+c.pollSamples {
		r.checks = append(r.checks, fmt.Sprintf("agent reads %d != samples %d + poll samples %d", c.agentReads, c.samples, c.pollSamples))
	}
	r.absorb(b)
	return nil
}

// absorb collects a fleet's admissions, failures, check results and
// operation count.
func (r *planeRun) absorb(f *fleet) {
	r.admits = append(r.admits, f.admitDur...)
	r.failed = append(r.failed, f.failed...)
	r.checks = append(r.checks, f.checks...)
	r.attempted += int(f.c.admissions+f.c.evictions+f.c.updates) + f.c.rounds
}
