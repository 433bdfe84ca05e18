package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"volley/internal/cluster"
	"volley/internal/obs"
	"volley/internal/transport"
)

// Sizes of the federation-tcp workload.
const (
	fedRows     = 8000
	fedMonitors = 2  // monitors per task (stubbed: nothing samples)
	fedConverge = 15 // rounds in an episode's converge phase
	fedSteady   = 10 // rounds of steady ticking with churn
	fedSettle   = 5  // churn-free rounds before ownership is read
	// fedMinTicks is the least number of node ticks a run times, so that
	// tick_p99_ms has at least ten samples beyond it.
	fedMinTicks     = 1000
	fedChurnPerTick = 2 // admissions and removals per steady round
)

// stubHost is a TaskHost that runs no monitors: it registers each owned
// task's monitor addresses on the node's local fabric with handlers that
// discard what the coordinator sends them.
type stubHost struct {
	local *transport.Memory
	rec   *recorder
	id    int
	addrs map[string][]string
}

func (h *stubHost) StartTask(spec cluster.TaskSpec, _ []byte, _ string) error {
	h.rec.begin(h.id)
	defer h.rec.end()
	for i, a := range spec.Monitors {
		if err := h.local.Register(a, func(transport.Message) {}); err != nil {
			for _, b := range spec.Monitors[:i] {
				_ = h.local.Deregister(b) // registered just above
			}
			return err
		}
	}
	h.addrs[spec.Name] = spec.Monitors
	return nil
}

func (h *stubHost) StopTask(name string) error {
	h.rec.begin(h.id)
	defer h.rec.end()
	for _, a := range h.addrs[name] {
		_ = h.local.Deregister(a) // registered by StartTask
	}
	delete(h.addrs, name)
	return nil
}

// fedNode is one shard of the federation: a cluster.Node on its own TCP
// listener, with an in-process fabric for its coordinators.
type fedNode struct {
	fab     *tcpFabric
	local   *transport.Memory
	traced  *tracedNet // local fabric wrapper of a traced run, else nil
	node    *cluster.Node
	metrics *obs.Registry
}

// federation is one built two-node cluster.
type federation struct {
	rec      *recorder
	nodes    [2]*fedNode
	live     []string // admitted, not removed, in admission order
	liveAt   map[string]int
	admitter map[string]int // task → node index that admitted it
	admitted map[string]bool
	next     int // next churn task number
	rng      *rand.Rand
	admitDur []time.Duration
	failed   []string
	ops      int

	idRound, idTick, idAdmit, idRemove int
}

func fedSpec(name string) cluster.TaskSpec {
	mons := make([]string, fedMonitors)
	for i := range mons {
		mons[i] = fmt.Sprintf("%s/mon/%d", name, i)
	}
	return cluster.TaskSpec{Name: name, Threshold: 100, Err: 0.05, Monitors: mons}
}

// newFederation builds both nodes, each listening on a loopback port, and
// admits the initial catalog, alternating the admitting node. With wrap
// set, the nodes' local fabrics are wrapped for tracing. It returns the
// federation and its set-up wall time.
func newFederation(seed int64, rec *recorder, wrap bool) (*federation, time.Duration, error) {
	f := &federation{
		rec:      rec,
		liveAt:   make(map[string]int),
		admitter: make(map[string]int),
		admitted: make(map[string]bool),
		rng:      rand.New(rand.NewSource(seed)),
	}
	f.idRound = rec.id("driver.round", true)
	f.idTick = rec.id("node.tick", true)
	f.idAdmit = rec.id("node.admit", false)
	f.idRemove = rec.id("node.remove", false)
	hostID := rec.id("node.host", false)

	start := time.Now()
	for i := range f.nodes {
		fab, err := newTCPFabric(rec)
		if err != nil {
			f.close()
			return nil, 0, err
		}
		n := &fedNode{fab: fab, local: transport.NewMemory(), metrics: obs.NewRegistry()}
		f.nodes[i] = n
	}
	for i, n := range f.nodes {
		peer := f.nodes[1-i]
		var local memoryNet = n.local
		if wrap {
			n.traced = newTracedNet(n.local, rec)
			local = n.traced
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			ID:      fmt.Sprintf("shard-%d", i),
			Addr:    n.fab.node.Addr(),
			Peers:   []cluster.Member{{ID: fmt.Sprintf("shard-%d", 1-i), Addr: peer.fab.node.Addr()}},
			Inter:   n.fab,
			Local:   local,
			Host:    &stubHost{local: n.local, rec: rec, id: hostID, addrs: make(map[string][]string)},
			Seed:    seed*31 + int64(i) + 1,
			Metrics: n.metrics,
			Tracer:  obs.NewTracer(4096),
		})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		n.node = node
	}
	for k := 0; k < fedRows; k++ {
		f.admit(fmt.Sprintf("task-%05d", k), k%2)
	}
	return f, time.Since(start), nil
}

// admit enters a task into one node's catalog, timed.
func (f *federation) admit(name string, node int) {
	start := time.Now()
	f.rec.begin(f.idAdmit)
	err := f.nodes[node].node.Admit(fedSpec(name), nil)
	f.rec.end()
	f.admitDur = append(f.admitDur, time.Since(start))
	f.ops++
	if err != nil {
		f.failed = append(f.failed, fmt.Sprintf("admit %s: %v", name, err))
		return
	}
	f.liveAt[name] = len(f.live)
	f.live = append(f.live, name)
	f.admitter[name] = node
	f.admitted[name] = true
}

// remove tombstones a live task at the node that admitted it.
func (f *federation) remove(name string) {
	f.rec.begin(f.idRemove)
	err := f.nodes[f.admitter[name]].node.Remove(name)
	f.rec.end()
	f.ops++
	if err != nil {
		f.failed = append(f.failed, fmt.Sprintf("remove %s: %v", name, err))
		return
	}
	i := f.liveAt[name]
	last := f.live[len(f.live)-1]
	f.live[i], f.liveAt[last] = last, i
	f.live = f.live[:len(f.live)-1]
	delete(f.liveAt, name)
}

// round ticks both nodes once. It returns the wall time of the round and
// of each node's Tick. It then lets the fabric drain — waits until no
// message is queued for a peer, as a daemon's ticker would between
// intervals — outside those times.
func (f *federation) round(step int) (time.Duration, [2]time.Duration) {
	defer f.drain()
	now := time.Duration(step) * interval
	f.rec.setRound(uint64(step))
	var per [2]time.Duration
	start := time.Now()
	f.rec.begin(f.idRound)
	for i, n := range f.nodes {
		t := time.Now()
		f.rec.begin(f.idTick)
		n.node.Tick(now)
		f.rec.end()
		per[i] = time.Since(t)
	}
	f.rec.end()
	f.ops++
	return time.Since(start), per
}

// drainWait bounds the wait for the fabric to drain after a round.
const drainWait = 250 * time.Millisecond

// drain waits until both nodes' outbound queues are empty, or drainWait.
func (f *federation) drain() {
	stop := time.Now().Add(drainWait)
	for time.Now().Before(stop) {
		queued := 0.0
		for _, n := range f.nodes {
			for _, d := range n.fab.node.QueueDepths() {
				queued += d
			}
		}
		if queued == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// churn admits and removes fedChurnPerTick seeded tasks each.
func (f *federation) churn() {
	for k := 0; k < fedChurnPerTick; k++ {
		f.admit(fmt.Sprintf("churn-%05d", f.next), f.next%2)
		f.next++
		f.remove(f.live[f.rng.Intn(len(f.live))])
	}
}

// converged reports whether both nodes hold the same live catalog and
// every catalog task has exactly one owner.
func (f *federation) converged() bool {
	a, b := f.nodes[0].node.Catalog(), f.nodes[1].node.Catalog()
	if len(a) != len(b) {
		return false
	}
	names := make([]string, len(a))
	for i := range a {
		if a[i].Spec.Name != b[i].Spec.Name || a[i].Version != b[i].Version {
			return false
		}
		names[i] = a[i].Spec.Name
	}
	return f.conflicts(names) == 0
}

// conflicts counts the named tasks not owned by exactly one node.
func (f *federation) conflicts(names []string) int {
	owners := make(map[string]int, len(names))
	for _, n := range f.nodes {
		for _, name := range n.node.Owned() {
			owners[name]++
		}
	}
	bad := 0
	for _, name := range names {
		if owners[name] != 1 {
			bad++
		}
	}
	return bad
}

// checkOwned verifies that each node owns only tasks the driver admitted
// and that every owned task's assignments sum to at most its allowance.
func (f *federation) checkOwned() []string {
	var bad []string
	for i, n := range f.nodes {
		for _, name := range n.node.Owned() {
			if !f.admitted[name] {
				bad = append(bad, fmt.Sprintf("node %d owns %s, which was never admitted", i, name))
				continue
			}
			as, ok := n.node.Allowance(name)
			if !ok {
				continue // released since Owned was read
			}
			sum := 0.0
			for _, e := range as {
				sum += e
			}
			if err := fedSpec(name).Err; sum > err*(1+1e-9)+1e-12 {
				bad = append(bad, fmt.Sprintf("node %d task %s: assignments sum %g exceed allowance %g", i, name, sum, err))
			}
		}
	}
	return bad
}

// tcpStats sums both nodes' transport counters.
func (f *federation) tcpStats() transport.Stats {
	var s transport.Stats
	for _, n := range f.nodes {
		t := n.fab.node.Stats()
		s.Sent += t.Sent
		s.Dropped += t.Dropped
		s.QueueFull += t.QueueFull
		s.Reconnects += t.Reconnects
		s.BytesSent += t.BytesSent
		s.FramesBatched += t.FramesBatched
	}
	return s
}

func (f *federation) counter(name string) uint64 {
	var v uint64
	for _, n := range f.nodes {
		v += n.metrics.Counter(name, "").Value()
	}
	return v
}

// close stops both TCP listeners and waits for their goroutines.
func (f *federation) close() {
	for _, n := range f.nodes {
		if n != nil {
			_ = n.fab.node.Close() // loopback listener; nothing to flush
		}
	}
}

// fedRun is what one federation-tcp run measured, over all its episodes.
type fedRun struct {
	setups    []time.Duration
	admits    []time.Duration
	rounds    []time.Duration // rounds of the untraced episodes
	ticks     []time.Duration // node ticks of the untraced episodes, two per round
	traced    []time.Duration // node ticks of the traced episodes (traced run only)
	episodes  int
	converge  []float64 // per episode
	conflicts []float64 // per episode
	rows      int
	heapBytes float64
	tcp       transport.Stats // TCP counters summed over episodes
	// healthy sums the TCP counters over each episode's first
	// cluster.DefaultDeadAfter rounds, before either member can have been
	// declared dead.
	healthy       transport.Stats
	healthyRounds int
	sendCalls     [maxKind]uint64 // TCP sends per kind
	sendBytes     [maxKind]uint64 // … and their payload bytes
	local         [maxKind]uint64 // local-fabric sends per kind (traced run)
	localErrs     uint64
	refused       uint64
	shipped       uint64
	acks          uint64
	suspects      uint64
	deaths        uint64
	rt            runtimeDelta // steady and settle rounds of the untraced episodes
	rtRounds      int
	failed        []string
	checks        []string
	attempted     int
	rec           *recorder
}

// runFederation drives federation-tcp as a sequence of episodes, each a
// fresh two-node federation taken through admit, converge, steady ticking
// with churn, and settle, until the run's duration is spent and at least
// fedMinTicks node ticks have been timed. How a single
// federation fares depends on a race between the TCP writers and the
// replication burst (see README.md), so the run measures many of them. In
// a traced run, odd episodes are traced and even ones are the untraced
// baseline for the tracing overhead.
func runFederation(seed int64, seconds time.Duration, trace bool, rawCap int) (*fedRun, error) {
	r := &fedRun{rec: newRecorder(false, rawCap)}
	runtime.GC()
	base := memStats().HeapAlloc
	begin := time.Now()
	for e := 0; len(r.ticks)+len(r.traced) < fedMinTicks || time.Since(begin) < seconds; e++ {
		traced := trace && e%2 == 1
		r.rec.on.Store(traced)
		if err := r.episode(seed*1000+int64(e), base, e == 0, traced, trace); err != nil {
			return nil, err
		}
	}
	r.rec.on.Store(false)
	return r, nil
}

// episode runs one federation from set-up to close. wrap installs the
// tracing wrappers (in every episode of a traced run, so traced and
// untraced episodes build the same objects).
func (r *fedRun) episode(seed int64, base uint64, first, traced, wrap bool) error {
	runtime.GC()
	f, setup, err := newFederation(seed, r.rec, wrap)
	if err != nil {
		return err
	}
	defer f.close()
	r.setups = append(r.setups, setup)
	if first {
		runtime.GC()
		r.rows = len(f.live)
		r.heapBytes = float64(memStats().HeapAlloc) - float64(base)
	}
	ticks := &r.ticks
	if traced {
		ticks = &r.traced
	}
	round := func(step int) {
		d, per := f.round(step)
		*ticks = append(*ticks, per[:]...)
		if !traced {
			r.rounds = append(r.rounds, d)
		}
	}
	step := 1
	convergeAt := -1
	for ; step <= fedConverge; step++ {
		round(step)
		if step == cluster.DefaultDeadAfter {
			h := f.tcpStats()
			r.healthy.Sent += h.Sent
			r.healthy.BytesSent += h.BytesSent
			r.healthyRounds += step
		}
		switch {
		case !f.converged():
			convergeAt = -1
		case convergeAt < 0:
			convergeAt = step
		}
	}
	if convergeAt < 0 {
		convergeAt = fedConverge
	}
	ms0 := memStats()
	for k := 0; k < fedSteady; k++ {
		round(step)
		step++
		f.churn()
	}
	for k := 0; k < fedSettle; k++ {
		round(step)
		step++
	}
	if !traced {
		r.rt.add(delta(ms0, memStats()))
		r.rtRounds += fedSteady + fedSettle
	}
	r.converge = append(r.converge, float64(convergeAt))
	r.conflicts = append(r.conflicts, float64(f.conflicts(f.live)))
	r.checks = append(r.checks, f.checkOwned()...)
	t := f.tcpStats()
	r.tcp.Sent += t.Sent
	r.tcp.Dropped += t.Dropped
	r.tcp.QueueFull += t.QueueFull
	r.tcp.Reconnects += t.Reconnects
	r.tcp.BytesSent += t.BytesSent
	r.tcp.FramesBatched += t.FramesBatched
	for _, n := range f.nodes {
		for i := range r.sendCalls {
			r.sendCalls[i] += n.fab.calls[i].Load()
			r.sendBytes[i] += n.fab.bytes[i].Load()
		}
		r.refused += n.fab.refused.Load()
		if n.traced != nil {
			for i, c := range n.traced.sends {
				r.local[i] += c
			}
			r.localErrs += n.traced.errors
		}
	}
	r.shipped += f.counter("volley_cluster_snapshots_shipped_total")
	r.acks += f.counter("volley_cluster_snapshot_acks_total")
	r.suspects += f.counter("volley_cluster_member_suspects_total")
	r.deaths += f.counter("volley_cluster_member_deaths_total")
	r.admits = append(r.admits, f.admitDur...)
	r.failed = append(r.failed, f.failed...)
	r.attempted += f.ops
	r.episodes++
	return nil
}
