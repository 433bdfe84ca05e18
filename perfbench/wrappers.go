package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"volley/internal/correlation"
	"volley/internal/transport"
)

// maxKind bounds the transport message kinds indexed by the counters below.
const maxKind = 16

// memoryNet is the Network/Deregisterer pair a cluster needs.
type memoryNet interface {
	transport.Network
	transport.Deregisterer
}

// tracedNet wraps the in-process Memory fabric for the traced run: every
// Send is a transport.send span counted per message kind, and every
// registered handler is wrapped in a span named for its receiver —
// coord.handle.<kind> at coordinator addresses ("…/coord"), monitor.handle
// everywhere else. Memory delivers synchronously, so handler spans nest
// inside the send that caused them.
type tracedNet struct {
	inner  memoryNet
	rec    *recorder
	sendID int
	monID  int
	coordH [maxKind]int
	sends  [maxKind]uint64
	errors uint64
}

func newTracedNet(inner memoryNet, rec *recorder) *tracedNet {
	n := &tracedNet{inner: inner, rec: rec}
	n.sendID = rec.id("transport.send", false)
	n.monID = rec.id("monitor.handle", false)
	for k := range n.coordH {
		n.coordH[k] = rec.id("coord.handle."+kindName(transport.Kind(k)), false)
	}
	return n
}

func (n *tracedNet) Register(addr string, h transport.Handler) error {
	if strings.HasSuffix(addr, "/coord") {
		return n.inner.Register(addr, func(msg transport.Message) {
			n.rec.begin(n.coordH[int(msg.Kind)%maxKind])
			h(msg)
			n.rec.end()
		})
	}
	return n.inner.Register(addr, func(msg transport.Message) {
		n.rec.begin(n.monID)
		h(msg)
		n.rec.end()
	})
}

func (n *tracedNet) Send(from, to string, msg transport.Message) error {
	n.sends[int(msg.Kind)%maxKind]++
	n.rec.begin(n.sendID)
	err := n.inner.Send(from, to, msg)
	n.rec.end()
	if err != nil {
		n.errors++
	}
	return err
}

func (n *tracedNet) Deregister(addr string) error { return n.inner.Deregister(addr) }

// kindName is the metric-name form of a message kind.
func kindName(k transport.Kind) string {
	switch k {
	case transport.KindLocalViolation:
		return "local_violation"
	case transport.KindPollRequest:
		return "poll_request"
	case transport.KindPollResponse:
		return "poll_response"
	case transport.KindYieldReport:
		return "yield_report"
	case transport.KindErrAssignment:
		return "err_assignment"
	case transport.KindHeartbeat:
		return "heartbeat"
	case transport.KindShardBeacon:
		return "beacon"
	case transport.KindSnapshot:
		return "snapshot"
	case transport.KindSnapshotAck:
		return "ack"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// seriesAgent is a monitor's data source: the pre-generated series, read
// at the fleet's current window plus the task's phase offset. It counts
// every read (adaptive samples and poll samples alike), and each read is an
// agent.sample span in the traced run.
type seriesAgent struct {
	values []float64
	offset int
	window *int
	reads  *uint64
	rec    *recorder
	id     int
}

func (a *seriesAgent) Sample() (float64, error) {
	a.rec.begin(a.id)
	*a.reads++
	v := a.values[(*a.window+a.offset)%len(a.values)]
	a.rec.end()
	return v, nil
}

// tracedGate wraps a correlation gate for the traced run: each Tick and
// Interval call the monitor makes is a gate span, and Interval calls that
// returned a stretched interval are counted as relaxed.
type tracedGate struct {
	g       *correlation.Gate
	rec     *recorder
	id      int
	calls   *uint64
	relaxed *uint64
}

func (t *tracedGate) Tick() {
	t.rec.begin(t.id)
	t.g.Tick()
	t.rec.end()
}

func (t *tracedGate) Interval(adaptive int) int {
	t.rec.begin(t.id)
	iv := t.g.Interval(adaptive)
	t.rec.end()
	*t.calls++
	if iv != adaptive {
		*t.relaxed++
	}
	return iv
}

// tcpFabric adapts a TCPNode to transport.Network the way volleyd's shard
// mode does: the TCP node needs its handler at listen time, before the
// cluster node exists, so the handler indirects through an atomic pointer.
// In the traced run every Send is a tcp.send span and every delivery a
// node.handle.<kind> span, both on the calling goroutine's own stack (the
// driver for sends from Node.Tick, a receive loop for deliveries and the
// acks they send).
type tcpFabric struct {
	node    *transport.TCPNode
	handler atomic.Pointer[transport.Handler]
	rec     *recorder
	sendID  int
	handle  [maxKind]int
	calls   [maxKind]atomic.Uint64
	bytes   [maxKind]atomic.Uint64 // payload bytes sent, per kind
	refused atomic.Uint64
}

func newTCPFabric(rec *recorder) (*tcpFabric, error) {
	f := &tcpFabric{rec: rec}
	f.sendID = rec.id("tcp.send", false)
	for k := range f.handle {
		f.handle[k] = rec.id("node.handle."+kindName(transport.Kind(k)), false)
	}
	node, err := transport.ListenTCP("127.0.0.1:0", func(msg transport.Message) {
		if h := f.handler.Load(); h != nil {
			f.rec.beginG(f.handle[int(msg.Kind)%maxKind])
			(*h)(msg)
			f.rec.endG()
		}
	})
	if err != nil {
		return nil, err
	}
	f.node = node
	return f, nil
}

func (f *tcpFabric) Register(addr string, h transport.Handler) error {
	if addr != f.node.Addr() {
		return fmt.Errorf("register %q on a TCP fabric listening at %q", addr, f.node.Addr())
	}
	if !f.handler.CompareAndSwap(nil, &h) {
		return fmt.Errorf("address %q already registered", addr)
	}
	return nil
}

func (f *tcpFabric) Send(from, to string, msg transport.Message) error {
	k := int(msg.Kind) % maxKind
	f.calls[k].Add(1)
	f.bytes[k].Add(uint64(len(msg.Payload)))
	f.rec.beginG(f.sendID)
	err := f.node.Send(from, to, msg)
	f.rec.endG()
	if err != nil {
		f.refused.Add(1)
	}
	return err
}

func (f *tcpFabric) Deregister(addr string) error { return f.node.Deregister(addr) }
