// Package transport carries the messages exchanged between monitors and
// coordinators: local violation reports, global polls, and the
// error-allowance coordination traffic of Section IV.
//
// Two implementations are provided:
//
//   - Memory: a deterministic in-process network used by the simulation
//     harness, with optional message loss and delivery delay for failure
//     injection.
//   - TCP (tcp.go): a network over TCP with a binary wire codec
//     (codec.go) for running real distributed deployments (see
//     examples/tcpcluster).
//
// Both count traffic, since communication cost is part of what the paper's
// local-task decomposition minimizes.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates message payloads.
type Kind int

const (
	// KindLocalViolation is a monitor→coordinator report that a local
	// threshold was exceeded.
	KindLocalViolation Kind = iota + 1
	// KindPollRequest is a coordinator→monitor request for the current
	// monitored value (part of a global poll).
	KindPollRequest
	// KindPollResponse is the monitor's answer to a poll request.
	KindPollResponse
	// KindYieldReport carries a monitor's averaged cost-reduction yield
	// statistics (r_i, e_i) to the coordinator.
	KindYieldReport
	// KindErrAssignment carries the coordinator's new error-allowance
	// assignment to a monitor.
	KindErrAssignment
	// KindHeartbeat is a monitor→coordinator liveness beacon: over real
	// networks silence between violations is the normal case, so liveness
	// needs explicit traffic.
	KindHeartbeat
	// KindShardBeacon is a shard→shard membership beacon: the gossiped
	// member table (and task catalog) rides in Payload. The shard tier's
	// analogue of KindHeartbeat.
	KindShardBeacon
	// KindSnapshot is a shard→shard replicated allowance snapshot: a
	// versioned, checksummed frame (cluster.EncodeSnapshot) in Payload,
	// with the snapshot epoch duplicated in Epoch for cheap staleness
	// checks.
	KindSnapshot
	// KindSnapshotAck acknowledges a received snapshot frame so the sender
	// stops retrying it. Task and Epoch identify the frame.
	KindSnapshotAck
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindLocalViolation:
		return "local-violation"
	case KindPollRequest:
		return "poll-request"
	case KindPollResponse:
		return "poll-response"
	case KindYieldReport:
		return "yield-report"
	case KindErrAssignment:
		return "err-assignment"
	case KindHeartbeat:
		return "heartbeat"
	case KindShardBeacon:
		return "shard-beacon"
	case KindSnapshot:
		return "snapshot"
	case KindSnapshotAck:
		return "snapshot-ack"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is the single wire format shared by all implementations. Unused
// fields are zero.
type Message struct {
	Kind Kind
	// Task names the monitoring task the message belongs to.
	Task string
	// From is the sender's registered address.
	From string
	// Time is the sender's (virtual) timestamp.
	Time time.Duration
	// Value carries a monitored value (violation reports, poll responses).
	Value float64
	// Reduction is r_i in yield reports.
	Reduction float64
	// Needed is e_i in yield reports.
	Needed float64
	// Interval is the monitor's average sampling interval (in default
	// intervals) over the reporting period, in yield reports.
	Interval float64
	// Err is the assigned error allowance in assignments.
	Err float64
	// Seq is a sender-local sequence number for deduplication/diagnostics.
	Seq uint64
	// Epoch is a shard-tier version number: the snapshot epoch in
	// KindSnapshot/KindSnapshotAck frames.
	Epoch uint64
	// Payload carries an opaque encoded body for the shard-tier messages
	// (membership tables, snapshot frames). Nil for the monitor-tier kinds,
	// whose fixed fields suffice.
	Payload []byte
}

// Handler consumes a delivered message.
type Handler func(Message)

// Network connects named endpoints.
type Network interface {
	// Register installs the handler for an address. Registering an address
	// twice is an error.
	Register(addr string, h Handler) error
	// Send delivers msg (asynchronously or synchronously, implementation-
	// defined) to the given address, stamping msg.From with from.
	Send(from, to string, msg Message) error
}

// Deregisterer is the optional Network extension for removing an address so
// it becomes unknown to the node again — the primitive behind task handoff
// in the sharded cluster layer (internal/cluster), where a coordinator
// address migrates from one shard to another, and behind dead-peer removal
// in the multi-process cluster, where a killed shard's address must not be
// redialed forever. Memory removes the inbound handler registered for the
// address; TCPNode (which has no per-address handlers) tears down the
// outbound peer state — the writer goroutine, its queue and the sender's
// dedup window.
type Deregisterer interface {
	// Deregister removes the address; deregistering an unknown address is
	// an error.
	Deregister(addr string) error
}

// Stats is a snapshot of a network's traffic counters.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// Duplicates counts received messages suppressed by sequence-number
	// deduplication (TCP reconnect retransmissions).
	Duplicates uint64
	// Reconnects counts outbound connections re-established after a
	// failure (TCP).
	Reconnects uint64
	// QueueFull counts sends dropped because a peer's outbound queue was
	// full (TCP); these are also included in Dropped.
	QueueFull uint64
	// Reordered counts deliveries deferred by reorder injection (Memory).
	Reordered uint64
	// BytesSent counts bytes written to the wire, framing included
	// (TCP only; Memory has no wire).
	BytesSent uint64
	// BytesRecv counts bytes read off the wire (TCP only).
	BytesRecv uint64
	// FramesBatched counts multi-message frames shipped by per-peer
	// coalescing (TCP binary codec, and Memory with batching enabled);
	// the wire saving is (messages sent − frames written).
	FramesBatched uint64
}

// counters is the live form of Stats: one atomic per field, so hot paths
// (the TCP send/receive/write loops in particular) count without taking
// the node mutex, and Stats() assembles a snapshot from a single struct
// instead of field-by-field reads of mutex-guarded state.
type counters struct {
	sent          atomic.Uint64
	delivered     atomic.Uint64
	dropped       atomic.Uint64
	duplicates    atomic.Uint64
	reconnects    atomic.Uint64
	queueFull     atomic.Uint64
	reordered     atomic.Uint64
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	framesBatched atomic.Uint64
}

// snapshot copies the counters into the exported Stats form.
func (c *counters) snapshot() Stats {
	return Stats{
		Sent:          c.sent.Load(),
		Delivered:     c.delivered.Load(),
		Dropped:       c.dropped.Load(),
		Duplicates:    c.duplicates.Load(),
		Reconnects:    c.reconnects.Load(),
		QueueFull:     c.queueFull.Load(),
		Reordered:     c.reordered.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesRecv:     c.bytesRecv.Load(),
		FramesBatched: c.framesBatched.Load(),
	}
}

// Memory is the deterministic in-process Network used in simulations. If a
// Scheduler is provided, deliveries are deferred through it (so they occur
// in virtual time); otherwise they are synchronous.
//
// Beyond probabilistic loss and duplication, Memory scripts the structural
// failures of real datacenter networks: Partition splits the address space
// into mutually unreachable groups, Crash/Restart makes an endpoint drop
// all of its traffic while down, and reorder injection defers a message
// past its successor. All fault switches can be flipped mid-run, which is
// what the chaos harness does.
//
// Memory is safe for concurrent use, though simulation runs are single-
// threaded by construction.
type Memory struct {
	mu          sync.Mutex
	handlers    map[string]Handler
	stats       counters
	lossProb    float64
	dupProb     float64
	reorderProb float64
	delay       time.Duration
	rng         *rand.Rand
	schedule    func(d time.Duration, f func()) error
	seq         uint64
	partition   map[string]int
	crashed     map[string]bool
	held        []heldDelivery
	filter      func(from, to string, msg Message) bool

	// Batching state (batch.go): when batchMax >= 1, Sends accumulate
	// per (from, to) link and deliver as whole batches at Flush or when
	// a link fills, so the fault switches act at frame granularity.
	batchMax       int
	pendingBatches []*memBatch
	heldBatch      *memBatch
}

// heldDelivery is a message deferred by reorder injection, flushed after
// the next undeferred delivery.
type heldDelivery struct {
	h   Handler
	to  string
	msg Message
}

// MemoryOption configures a Memory network.
type MemoryOption func(*Memory)

// WithLoss drops each message independently with probability p, using the
// given seed. Use for failure injection.
func WithLoss(p float64, seed int64) MemoryOption {
	return func(m *Memory) {
		m.lossProb = p
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(seed))
		}
	}
}

// WithDuplication delivers each message a second time with probability p —
// at-least-once semantics, the failure mode retransmitting transports
// exhibit. Receivers must be idempotent.
func WithDuplication(p float64, seed int64) MemoryOption {
	return func(m *Memory) {
		m.dupProb = p
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(seed))
		}
	}
}

// WithReorder defers each message independently with probability p so it
// is delivered after its successor — the out-of-order delivery multipath
// networks exhibit. At most one message is held at a time; the held message
// is flushed right after the next undeferred delivery.
func WithReorder(p float64, seed int64) MemoryOption {
	return func(m *Memory) {
		m.reorderProb = p
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(seed))
		}
	}
}

// WithScheduler defers deliveries through the given scheduler with the
// given delay; pass the simulator's After method to deliver in virtual
// time.
func WithScheduler(delay time.Duration, schedule func(d time.Duration, f func()) error) MemoryOption {
	return func(m *Memory) {
		m.delay = delay
		m.schedule = schedule
	}
}

// NewMemory builds an in-process network.
func NewMemory(opts ...MemoryOption) *Memory {
	m := &Memory{handlers: make(map[string]Handler)}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Register implements Network.
func (m *Memory) Register(addr string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.handlers[addr]; ok {
		return fmt.Errorf("transport: address %q already registered", addr)
	}
	m.handlers[addr] = h
	return nil
}

// Deregister implements Deregisterer. Messages already accepted for the
// address may still be delivered (scheduled or held deliveries captured the
// handler), mirroring how in-flight packets outlive a real endpoint.
func (m *Memory) Deregister(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.handlers[addr]; !ok {
		return fmt.Errorf("transport: deregister unknown address %q", addr)
	}
	delete(m.handlers, addr)
	return nil
}

// rngLocked returns the fault-injection RNG, creating a deterministic one
// on first use so fault switches can be flipped at runtime on a Memory that
// was built without probabilistic options. Caller holds m.mu.
func (m *Memory) rngLocked() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(1))
	}
	return m.rng
}

// SetLoss changes the message-loss probability mid-run.
func (m *Memory) SetLoss(p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lossProb = p
	m.rngLocked()
}

// SetReorder changes the reorder probability mid-run.
func (m *Memory) SetReorder(p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reorderProb = p
	m.rngLocked()
}

// SetFilter installs (or, with nil, removes) a message-level fault
// predicate: a message for which it returns true is dropped (and counted).
// Unlike the probabilistic switches it sees the full message, so chaos
// harnesses can cut one traffic class on one link — e.g. drop only the
// snapshot frames between a shard and its ring successor while beacons
// keep flowing, the partial-partition failure mode of real fabrics.
func (m *Memory) SetFilter(f func(from, to string, msg Message) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.filter = f
}

// Partition splits the network: a message whose sender and receiver fall in
// different groups is dropped. Addresses not listed in any group remain
// reachable from everywhere. Partition replaces any previous partition;
// Heal removes it.
func (m *Memory) Partition(groups ...[]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partition = make(map[string]int)
	for i, g := range groups {
		for _, addr := range g {
			m.partition[addr] = i
		}
	}
}

// Heal removes the current partition.
func (m *Memory) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partition = nil
}

// Crash takes an endpoint down: all messages to or from it are dropped
// until Restart. The registration survives, modeling a process crash rather
// than a decommission.
func (m *Memory) Crash(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed == nil {
		m.crashed = make(map[string]bool)
	}
	m.crashed[addr] = true
}

// Restart brings a crashed endpoint back.
func (m *Memory) Restart(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.crashed, addr)
}

// unreachableLocked reports whether a message from→to is cut by the current
// partition or a crashed endpoint. Caller holds m.mu.
func (m *Memory) unreachableLocked(from, to string) bool {
	if m.crashed[from] || m.crashed[to] {
		return true
	}
	if m.partition == nil {
		return false
	}
	gf, okf := m.partition[from]
	gt, okt := m.partition[to]
	return okf && okt && gf != gt
}

// Send implements Network.
func (m *Memory) Send(from, to string, msg Message) error {
	m.mu.Lock()
	if m.batchMax >= 1 {
		// enqueueBatched unlocks.
		return m.enqueueBatched(link{from: from, to: to}, msg)
	}
	h, ok := m.handlers[to]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("transport: unknown address %q", to)
	}
	m.stats.sent.Add(1)
	m.seq++
	msg.From = from
	msg.Seq = m.seq
	if m.unreachableLocked(from, to) {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	if m.filter != nil && m.filter(from, to, msg) {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	dropped := m.lossProb > 0 && m.rngLocked().Float64() < m.lossProb
	if dropped {
		m.stats.dropped.Add(1)
		m.mu.Unlock()
		return nil
	}
	duplicated := m.dupProb > 0 && m.rngLocked().Float64() < m.dupProb
	// Hold at most one message at a time: a held message is delivered right
	// after the next undeferred one, producing a pairwise swap.
	if m.reorderProb > 0 && len(m.held) == 0 && m.rngLocked().Float64() < m.reorderProb {
		m.held = append(m.held, heldDelivery{h: h, to: to, msg: msg})
		m.stats.reordered.Add(1)
		m.mu.Unlock()
		return nil
	}
	held := m.held
	m.held = nil
	schedule := m.schedule
	delay := m.delay
	m.mu.Unlock()

	deliver := func(h Handler, msg Message) func() {
		return func() {
			h(msg)
			m.stats.delivered.Add(1)
		}
	}
	var deliveries []func()
	times := 1
	if duplicated {
		times = 2
	}
	for i := 0; i < times; i++ {
		deliveries = append(deliveries, deliver(h, msg))
	}
	// Flush held messages after the current one; re-check reachability at
	// flush time so a crash or partition that happened while the message
	// was in flight still cuts it.
	for _, hd := range held {
		m.mu.Lock()
		cut := m.unreachableLocked(hd.msg.From, hd.to)
		if cut {
			m.stats.dropped.Add(1)
		}
		m.mu.Unlock()
		if !cut {
			deliveries = append(deliveries, deliver(hd.h, hd.msg))
		}
	}
	for _, d := range deliveries {
		if schedule != nil {
			if err := schedule(delay, d); err != nil {
				return err
			}
			continue
		}
		d()
	}
	return nil
}

// Stats returns a consistent snapshot of the traffic counters.
func (m *Memory) Stats() Stats {
	return m.stats.snapshot()
}
