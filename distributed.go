package volley

import (
	"time"

	"volley/internal/coord"
	"volley/internal/correlation"
	"volley/internal/monitor"
	"volley/internal/transport"
)

// Agent provides the monitored variable to a Monitor; sampling it is the
// costly operation Volley economizes.
type Agent = monitor.Agent

// AgentFunc adapts a plain function to the Agent interface.
type AgentFunc = monitor.AgentFunc

// Monitor is a monitor node: it drives an adaptive sampler against an
// Agent, detects local violations, reports them to its coordinator, serves
// global polls and ships yield statistics for allowance coordination.
// Advance it by calling Tick once per default sampling interval.
type Monitor = monitor.Monitor

// MonitorConfig parameterizes a Monitor.
type MonitorConfig = monitor.Config

// MonitorIntervalGate relaxes a monitor's effective sampling interval
// while no correlated predictor signals elevated violation likelihood
// (MonitorConfig.Gate); a correlation Gate satisfies it.
type MonitorIntervalGate = monitor.IntervalGate

// MonitorStats counts a monitor's activity.
type MonitorStats = monitor.Stats

// MonitorState is a serializable snapshot of a monitor's sampling position
// (Monitor.Snapshot / Monitor.Restore), letting a restarted monitor resume
// exactly where it left off instead of cold-starting.
type MonitorState = monitor.State

// NewMonitor builds a Monitor and registers it on its network.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	return monitor.New(cfg)
}

// Coordinator runs one task's global side: local-violation handling, global
// polls against the global threshold, and error-allowance distribution
// across monitors. Advance it by calling Tick once per default interval.
type Coordinator = coord.Coordinator

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig = coord.Config

// CoordinatorStats counts coordinator activity.
type CoordinatorStats = coord.Stats

// Scheme selects the error-allowance distribution strategy.
type Scheme = coord.Scheme

// Distribution schemes: SchemeAdaptive is the paper's iterative yield-based
// tuning; SchemeEven is the static baseline it is compared against.
const (
	SchemeAdaptive = coord.SchemeAdaptive
	SchemeEven     = coord.SchemeEven
)

// NewCoordinator builds a Coordinator and registers it on its network.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return coord.New(cfg)
}

// Network connects monitors and coordinators.
type Network = transport.Network

// Message is the wire format shared by all Network implementations.
type Message = transport.Message

// MessageKind discriminates Message payloads. The TCP transport's binary
// codec has a fixed vocabulary — Send rejects any other kind — so custom
// traffic must reuse one of these.
type MessageKind = transport.Kind

// The wire vocabulary; see the transport package for field semantics.
const (
	KindLocalViolation = transport.KindLocalViolation
	KindPollRequest    = transport.KindPollRequest
	KindPollResponse   = transport.KindPollResponse
	KindYieldReport    = transport.KindYieldReport
	KindErrAssignment  = transport.KindErrAssignment
	KindHeartbeat      = transport.KindHeartbeat
	KindShardBeacon    = transport.KindShardBeacon
	KindSnapshot       = transport.KindSnapshot
	KindSnapshotAck    = transport.KindSnapshotAck
)

// MessageHandler consumes a delivered Message; custom Network
// implementations receive one at Register time.
type MessageHandler = transport.Handler

// MemoryNetwork is the deterministic in-process Network used by the
// simulation harness, with optional loss and delay injection.
type MemoryNetwork = transport.Memory

// NewMemoryNetwork builds an in-process network.
func NewMemoryNetwork(opts ...transport.MemoryOption) *MemoryNetwork {
	return transport.NewMemory(opts...)
}

// WithNetworkLoss drops each message independently with probability p
// (failure injection for MemoryNetwork).
func WithNetworkLoss(p float64, seed int64) transport.MemoryOption {
	return transport.WithLoss(p, seed)
}

// WithNetworkDuplication delivers each message a second time with
// probability p (at-least-once failure injection for MemoryNetwork).
func WithNetworkDuplication(p float64, seed int64) transport.MemoryOption {
	return transport.WithDuplication(p, seed)
}

// WithNetworkReorder defers each message independently with probability p
// so it is delivered after its successor (out-of-order injection for
// MemoryNetwork). MemoryNetwork additionally exposes runtime fault
// switches: SetLoss, SetReorder, Partition/Heal and Crash/Restart.
func WithNetworkReorder(p float64, seed int64) transport.MemoryOption {
	return transport.WithReorder(p, seed)
}

// TCPNode is one endpoint of a TCP network for real deployments. Messages
// travel on a hand-rolled zero-allocation binary wire codec, and the
// per-peer writer coalesces queued messages into batch frames. Sending is
// asynchronous — per-peer outbound queues, dial/write deadlines and
// bounded-exponential reconnect backoff — so a dead peer never blocks a
// caller, and receivers deduplicate reconnect retransmissions by sequence
// number.
type TCPNode = transport.TCPNode

// TCPOption configures a TCPNode (batching, deadlines, queue depth,
// reconnect backoff, dedup window).
type TCPOption = transport.TCPOption

// TCP node options; see the transport package for semantics and defaults.
func WithTCPDialTimeout(d time.Duration) TCPOption { return transport.WithDialTimeout(d) }
func WithTCPSendTimeout(d time.Duration) TCPOption { return transport.WithSendTimeout(d) }
func WithTCPQueueDepth(depth int) TCPOption        { return transport.WithQueueDepth(depth) }
func WithTCPSendRetries(retries int) TCPOption     { return transport.WithSendRetries(retries) }
func WithTCPDedupWindow(window int) TCPOption      { return transport.WithDedupWindow(window) }
func WithTCPReconnectBackoff(min, max time.Duration) TCPOption {
	return transport.WithReconnectBackoff(min, max)
}

// WithTCPBatchWindow bounds how long the per-peer writer waits for more
// queued messages before shipping a partially filled batch frame.
func WithTCPBatchWindow(d time.Duration) TCPOption { return transport.WithBatchWindow(d) }

// WithTCPMaxBatch caps how many messages one batch frame may carry;
// 1 disables coalescing.
func WithTCPMaxBatch(n int) TCPOption { return transport.WithMaxBatch(n) }

// ListenTCP starts a TCP endpoint; see examples/tcpcluster.
func ListenTCP(addr string, h func(Message), opts ...TCPOption) (*TCPNode, error) {
	return transport.ListenTCP(addr, h, opts...)
}

// CorrelationDetector finds predictor→target relationships between task
// state series (multi-task level).
type CorrelationDetector = correlation.Detector

// CorrelationRule is one detected predictor→target relationship.
type CorrelationRule = correlation.Rule

// MonitoringPlan maps gated target tasks to the rules gating them.
type MonitoringPlan = correlation.Plan

// Gate applies one correlation rule at runtime: the target samples at a
// relaxed interval until its predictor arms it.
type Gate = correlation.Gate

// NewCorrelationDetector returns a detector scanning predictor→target lags
// in [0, maxLag] with the given co-occurrence slack (both in default
// intervals).
func NewCorrelationDetector(maxLag, slack int) (*CorrelationDetector, error) {
	return correlation.NewDetector(maxLag, slack)
}

// BuildMonitoringPlan selects at most one gating rule per target task,
// preferring high recall and cheap predictors, refusing gate chains.
func BuildMonitoringPlan(rules []CorrelationRule, costs map[string]float64, minRecall float64) (MonitoringPlan, error) {
	return correlation.BuildPlan(rules, costs, minRecall)
}

// NewGate builds a runtime gate with the given relaxed interval and
// hold-down period (both in default intervals).
func NewGate(relaxedInterval, holdDown int) (*Gate, error) {
	return correlation.NewGate(relaxedInterval, holdDown)
}

// TaskScheduler runs a set of monitoring tasks under a correlation plan:
// every task samples adaptively, and gated tasks additionally relax to a
// long interval until their predictor observes a violation.
type TaskScheduler = correlation.Scheduler

// TaskSchedulerStats counts one scheduled task's activity.
type TaskSchedulerStats = correlation.TaskStats

// NewTaskScheduler returns an empty multi-task scheduler; add tasks with
// AddTask, install a plan with Apply, and drive it with Step once per
// default interval.
func NewTaskScheduler() *TaskScheduler {
	return correlation.NewScheduler()
}
