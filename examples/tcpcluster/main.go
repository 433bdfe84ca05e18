// TCP cluster: the same distributed state-monitoring task as examples/ddos,
// but with monitors and coordinator communicating over real TCP sockets on
// localhost (the binary wire codec), showing how Volley deploys outside the
// simulation harness — including how it rides out a monitor crash.
//
// The run scripts a full failure cycle: a healthy cluster, one monitor
// hard-crashed (socket closed, ticker stopped), the coordinator detecting
// the death from missing heartbeats and reclaiming the dead monitor's error
// allowance for the survivors, then the monitor restarting on the same
// address from its snapshot, reconnecting, and getting its allowance back.
//
// Each node runs in its own goroutine with a wall-clock ticker; the run is
// kept short so the example finishes in a few seconds.
//
// Run with:
//
//	go run ./examples/tcpcluster
//
// and to watch the cluster live, add an observability endpoint and scrape
// it mid-run:
//
//	go run ./examples/tcpcluster -listen 127.0.0.1:9464 &
//	curl -s localhost:9464/metrics
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"volley"
)

const (
	monitors        = 4
	defaultInterval = 10 * time.Millisecond // sped-up "15-second" window
	runFor          = 3 * time.Second
	globalErr       = 0.05
	globalThreshold = 360.0
	heartbeatEvery  = 5  // ticks between liveness beacons
	deadAfter       = 30 // ticks of silence before a monitor is declared dead
	crashAt         = 1 * time.Second
	restartAt       = 1800 * time.Millisecond
	spikeAt         = 2200 * time.Millisecond
)

// tcpNetwork adapts a TCPNode to the Network interface Monitors and
// Coordinators expect: Register wires the component's handler to the node's
// receive loop, Send dials the destination address directly.
type tcpNetwork struct {
	node *volley.TCPNode

	mu      sync.Mutex
	handler volley.MessageHandler
}

// newTCPNetwork listens on the given address ("127.0.0.1:0" for a fresh
// port) and dispatches inbound messages to whatever handler gets registered.
func newTCPNetwork(addr string) (*tcpNetwork, error) {
	n := &tcpNetwork{}
	node, err := volley.ListenTCP(addr, func(msg volley.Message) {
		n.mu.Lock()
		h := n.handler
		n.mu.Unlock()
		if h != nil {
			h(msg)
		}
	})
	if err != nil {
		return nil, err
	}
	n.node = node
	return n, nil
}

func (n *tcpNetwork) Register(_ string, h volley.MessageHandler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.handler != nil {
		return fmt.Errorf("tcpcluster: handler already registered")
	}
	n.handler = h
	return nil
}

func (n *tcpNetwork) Send(from, to string, msg volley.Message) error {
	return n.node.Send(from, to, msg)
}

func (n *tcpNetwork) Addr() string { return n.node.Addr() }

func main() {
	listen := flag.String("listen", "", "serve Prometheus-style /metrics and the /alerts operator API on this address during the run")
	linger := flag.Duration("linger", 0, "keep the cluster running (and spiking) this long after the scripted cycle, so /alerts can be worked with curl")
	flag.Parse()
	if err := run(*listen, *linger, nil); err != nil {
		log.Fatal(err)
	}
}

// fmtAssignments renders an assignment map in stable address order.
func fmtAssignments(a map[string]float64) string {
	addrs := make([]string, 0, len(a))
	for addr := range a {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	parts := make([]string, len(addrs))
	for i, addr := range addrs {
		parts[i] = fmt.Sprintf("%s=%.4f", addr, a[addr])
	}
	return strings.Join(parts, " ")
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// run executes the scripted failure cycle; when listen is non-empty the
// cluster's metrics and decision trace are served on /metrics, and the
// stateful alert lifecycle on /alerts, for the duration of the run
// (onListen, if set, receives the bound address — a test hook so ":0"
// works).
func run(listen string, linger time.Duration, onListen func(addr string)) error {
	coordNet, err := newTCPNetwork("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer coordNet.node.Close()

	start := time.Now()
	now := func() time.Duration { return time.Since(start) }

	// One instrument registry and one decision tracer span the whole
	// cluster: per-monitor sampler series are distinguished by their
	// instance label, and the tracer sees coordinator-side liveness and
	// allowance decisions.
	metrics := volley.NewMetrics()
	tracer := volley.NewTracer(512, volley.WithTraceClock(now))

	monitorNets := make([]*tcpNetwork, monitors)
	addrs := make([]string, monitors)
	for i := range monitorNets {
		n, err := newTCPNetwork("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer n.node.Close()
		monitorNets[i] = n
		addrs[i] = n.Addr()
	}

	// The stateful alert registry: confirmed global violations dedup into
	// one live episode, worked through the /alerts operator API below.
	areg := volley.NewAlertRegistry(volley.AlertConfig{
		Node: "tcpcluster", Metrics: metrics, Tracer: tracer,
	})

	var (
		alertMu sync.Mutex
		alerts  int
	)
	coordinator, err := volley.NewCoordinator(volley.CoordinatorConfig{
		ID:        coordNet.Addr(),
		Task:      "tcp-demo",
		Threshold: globalThreshold,
		Err:       globalErr,
		Monitors:  addrs,
		Network:   coordNet,
		DeadAfter: deadAfter,
		Metrics:   metrics,
		Tracer:    tracer,
		Alerts:    areg,
		OnAlert: func(time.Duration, float64) {
			alertMu.Lock()
			alerts++
			alertMu.Unlock()
		},
	})
	if err != nil {
		return err
	}

	locals, err := volley.SplitThresholdEven(globalThreshold, monitors)
	if err != nil {
		return err
	}

	newDemoMonitor := func(i int, net *tcpNetwork) (*volley.Monitor, error) {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		agent := volley.AgentFunc(func() (float64, error) {
			// A smooth signal that spikes across the local threshold near
			// the end of the run, after the crashed monitor has recovered.
			base := 40 + 10*math.Sin(now().Seconds()*2)
			if now() > spikeAt {
				base += 80
			}
			return base + rng.NormFloat64(), nil
		})
		return volley.NewMonitor(volley.MonitorConfig{
			ID:    addrs[i],
			Task:  "tcp-demo",
			Agent: agent,
			Sampler: volley.SamplerConfig{
				Threshold:   locals[i],
				Err:         globalErr / monitors,
				MaxInterval: 10,
			},
			Network:        net,
			Coordinator:    coordNet.Addr(),
			HeartbeatEvery: heartbeatEvery,
			Metrics:        metrics,
			Tracer:         tracer,
		})
	}

	monitorNodes := make([]*volley.Monitor, monitors)
	for i := range monitorNodes {
		if monitorNodes[i], err = newDemoMonitor(i, monitorNets[i]); err != nil {
			return err
		}
	}

	// Observability endpoint: component facades (monitor/coordinator
	// stats), the low-level instruments, and the decision trace rendered on
	// one /metrics page.
	if listen != "" {
		registry := volley.NewMetricsRegistry()
		if err := registry.AddCoordinator("coordinator", coordinator); err != nil {
			return err
		}
		for i, m := range monitorNodes {
			if err := registry.AddMonitor(addrs[i], m); err != nil {
				return err
			}
		}
		registry.AddCollector(metrics.WritePrometheus)
		registry.AddCollector(tracer.WritePrometheus)
		mux := http.NewServeMux()
		mux.Handle("/metrics", registry.Handler())
		// The operator alert surface: list the live episode, acknowledge
		// it, resolve it — the README quick-start works this with curl.
		mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(areg.List())
		})
		alertOp := func(op func(uint64, time.Duration, string) error) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
				if err != nil {
					http.Error(w, "bad alert id", http.StatusBadRequest)
					return
				}
				switch err := op(id, now(), r.URL.Query().Get("actor")); {
				case errors.Is(err, volley.ErrAlertNotFound):
					http.Error(w, err.Error(), http.StatusNotFound)
				case errors.Is(err, volley.ErrAlertBadState):
					http.Error(w, err.Error(), http.StatusConflict)
				case err != nil:
					http.Error(w, err.Error(), http.StatusInternalServerError)
				default:
					a, _ := areg.Get(id)
					w.Header().Set("Content-Type", "application/json")
					_ = json.NewEncoder(w).Encode(a)
				}
			}
		}
		mux.HandleFunc("POST /alerts/{id}/ack", alertOp(areg.Ack))
		mux.HandleFunc("POST /alerts/{id}/resolve", alertOp(areg.Resolve))
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return err
		}
		if onListen != nil {
			onListen(ln.Addr().String())
		}
		fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
		}()
	}

	// Drive everything on real wall-clock tickers; each loop can be stopped
	// individually (the crash) or all together (end of run).
	var wg sync.WaitGroup
	stopAll := make(chan struct{})
	startTicker := func(f func(time.Duration)) chan struct{} {
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(defaultInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stopAll:
					return
				case <-stop:
					return
				case <-ticker.C:
					f(now())
				}
			}
		}()
		return stop
	}
	waitFor := func(desc string, cond func() bool) error {
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("tcpcluster: timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}

	monStops := make([]chan struct{}, monitors)
	for i, m := range monitorNodes {
		m := m
		monStops[i] = startTicker(func(t time.Duration) {
			if _, _, err := m.Tick(t); err != nil {
				log.Printf("monitor tick: %v", err)
			}
		})
	}
	startTicker(coordinator.Tick)

	// Phase 1: healthy cluster.
	time.Sleep(crashAt)

	// Phase 2: hard-crash the last monitor — snapshot what a real deployment
	// would have persisted, then kill socket and ticker.
	victim := monitors - 1
	snapshot := monitorNodes[victim].Snapshot()
	close(monStops[victim])
	monitorNets[victim].node.Close()
	fmt.Printf("[%6v] crash: monitor %s down\n", now().Round(time.Millisecond), addrs[victim])

	if err := waitFor("death detection", func() bool {
		return contains(coordinator.DeadMonitors(), addrs[victim])
	}); err != nil {
		return err
	}
	fmt.Printf("[%6v] death detected: alive=%d/%d\n",
		now().Round(time.Millisecond), len(coordinator.AliveMonitors()), monitors)
	fmt.Printf("         allowance reclaimed: %s\n", fmtAssignments(coordinator.Assignments()))

	// Phase 3: restart on the same address from the snapshot; the
	// coordinator's writer redials with backoff, heartbeats resume, and the
	// reclaimed allowance is restored.
	if wait := restartAt - now(); wait > 0 {
		time.Sleep(wait)
	}
	restartedNet, err := newTCPNetwork(addrs[victim])
	if err != nil {
		return err
	}
	defer restartedNet.node.Close()
	restored, err := newDemoMonitor(victim, restartedNet)
	if err != nil {
		return err
	}
	if err := restored.Restore(snapshot); err != nil {
		return err
	}
	monitorNodes[victim] = restored
	monStops[victim] = startTicker(func(t time.Duration) {
		if _, _, err := restored.Tick(t); err != nil {
			log.Printf("monitor tick: %v", err)
		}
	})
	fmt.Printf("[%6v] restart: monitor %s back on the same address (interval resumed at %d)\n",
		now().Round(time.Millisecond), addrs[victim], restored.Interval())

	if err := waitFor("resurrection", func() bool {
		return !contains(coordinator.DeadMonitors(), addrs[victim])
	}); err != nil {
		return err
	}
	fmt.Printf("[%6v] resurrection: allowance restored: %s\n",
		now().Round(time.Millisecond), fmtAssignments(coordinator.Assignments()))

	// Phase 4: ride out the end-of-run spike with the recovered cluster.
	if wait := runFor - now(); wait > 0 {
		time.Sleep(wait)
	}
	// Linger keeps the spike (and the open alert) live past the scripted
	// cycle so the operator API can be worked interactively.
	if linger > 0 {
		fmt.Printf("[%6v] lingering %v: curl /alerts, ack and resolve while the spike holds\n",
			now().Round(time.Millisecond), linger)
		time.Sleep(linger)
	}
	close(stopAll)
	wg.Wait()

	var samples, ticks uint64
	for _, m := range monitorNodes {
		st := m.Stats()
		samples += st.Samples + st.PollSamples
		ticks += st.Ticks
	}
	cs := coordinator.Stats()
	alertMu.Lock()
	finalAlerts := alerts
	alertMu.Unlock()

	fmt.Printf("monitors:            %d over TCP (coordinator at %s)\n", monitors, coordNet.Addr())
	fmt.Printf("ticks per monitor:   ~%d\n", ticks/monitors)
	fmt.Printf("sampling operations: %d of %d periodical (%.1f%% saved)\n",
		samples, ticks, 100*(1-float64(samples)/float64(ticks)))
	fmt.Printf("local violations:    %d, global polls: %d, alerts: %d\n",
		cs.LocalViolations, cs.Polls, finalAlerts)
	for _, a := range areg.List() {
		fmt.Printf("alert episode:       #%d %s status=%s occurrences=%d peak=%.0f\n",
			a.ID, a.Task, a.Status, a.Occurrences, a.Peak)
	}
	fmt.Printf("failure cycle:       heartbeats=%d reclamations=%d restorations=%d\n",
		cs.Heartbeats, cs.Reclamations, cs.Restorations)
	fmt.Printf("decision trace:      %d events (%d heartbeat-deaths, %d reclaims, %d restores)\n",
		tracer.Total(),
		tracer.TypeCount(volley.TraceHeartbeatDeath),
		tracer.TypeCount(volley.TraceAllowanceReclaim),
		tracer.TypeCount(volley.TraceAllowanceRestore))
	if finalAlerts == 0 {
		return fmt.Errorf("expected at least one global alert from the end-of-run spike")
	}
	if cs.Reclamations == 0 || cs.Restorations == 0 {
		return fmt.Errorf("failure cycle incomplete: %+v", cs)
	}
	return nil
}
