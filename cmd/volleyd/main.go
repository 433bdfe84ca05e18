// Command volleyd is a small adaptive monitoring daemon: it watches one
// numeric signal — the output of a command or the body of an HTTP endpoint
// — with Volley's violation-likelihood based sampling, logs state alerts as
// JSON lines, and optionally serves Prometheus-style metrics about its own
// behavior.
//
// The daemon samples at the default interval only while a violation is
// plausible; when the signal is far from the threshold it stretches the
// probe interval up to -max-interval times, cutting probe cost exactly the
// way the paper cuts datacenter monitoring cost.
//
// Usage:
//
//	volleyd -source 'cmd:sh -c "wc -l < /var/log/app.log"' \
//	        -interval 5s -threshold 10000 -err 0.01
//
//	volleyd -source http://localhost:8080/queue-depth \
//	        -interval 1s -threshold 500 -err 0.01 -listen :9464
//
// Flags:
//
//	-source     cmd:<command line> or an http(s) URL returning a number
//	-interval   default sampling interval Id
//	-threshold  alert threshold T
//	-direction  above (default) or below
//	-err        error allowance (default 0.01)
//	-max-interval  largest interval in units of Id (default 20)
//	-window     optional aggregation window (in intervals) over which the
//	            moving mean is monitored instead of raw values
//	-listen     optional address to serve the observability endpoints on:
//	            /metrics (Prometheus text), /healthz (JSON liveness),
//	            /debug/vars (expvar), /debug/pprof/* and /debug/events
//	            (recent decision events as JSON)
//	-events     also tail decision events (interval grow/reset, violations)
//	            as JSON lines on stdout, interleaved with the sample log
//	-duration   optional run duration (default: run forever)
//	-state      optional file persisting sampler state across restarts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"volley"
	"volley/internal/transport"
)

func main() {
	var (
		source      = flag.String("source", "", `signal source: "cmd:<command>" or an http(s) URL`)
		interval    = flag.Duration("interval", 5*time.Second, "default sampling interval Id")
		threshold   = flag.Float64("threshold", 0, "alert threshold T")
		direction   = flag.String("direction", "above", "violating side of the threshold: above or below")
		errAllow    = flag.Float64("err", 0.01, "error allowance")
		maxInterval = flag.Int("max-interval", 20, "maximum interval in units of Id")
		window      = flag.Int("window", 0, "aggregation window in intervals (0 = monitor raw values)")
		listen      = flag.String("listen", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof and /debug/events on this address")
		events      = flag.Bool("events", false, "tail decision events as JSON lines on stdout")
		duration    = flag.Duration("duration", 0, "stop after this long (0 = run until signalled)")
		stateFile   = flag.String("state", "", "persist sampler state to this file and restore it on start")
		eventsFile  = flag.String("events-file", "", "append decision events as JSON lines to this file (flushed on shutdown)")
		alertHist   = flag.String("alert-history", "", "append alert lifecycle transitions as JSON lines to this file (flushed on shutdown)")
		alertTTL    = flag.Duration("alert-ttl", 0, "expire live alerts not re-confirmed for this long (0 = never)")
		shards      = flag.Int("shards", 0, "run a sharded monitoring cluster with this many coordinator shards; tasks are admitted over HTTP (see cluster.go)")

		shardID       = flag.String("shard-id", "", "run as one networked cluster shard with this identity; requires -peer-listen (see shard.go)")
		peerListen    = flag.String("peer-listen", "", "TCP address for inter-shard traffic (beacons + snapshots)")
		peers         = flag.String("peers", "", `seed peers as "id=host:port,id=host:port"`)
		beaconEvery   = flag.Int("beacon-every", 2, "gossip beacon period in ticks (shard mode)")
		suspectAfter  = flag.Int("suspect-after", 8, "ticks of silence before a peer is suspected (shard mode)")
		deadAfter     = flag.Int("dead-after", 16, "ticks of silence before a peer is declared dead (shard mode)")
		snapshotEvery = flag.Int("snapshot-every", 5, "allowance snapshot replication period in ticks (shard mode)")
		batchWindow   = flag.Duration("batch-window", 0, "how long the peer writer waits to coalesce more messages into one frame (shard mode; 0 = ship whatever is already queued)")
		maxBatch      = flag.Int("max-batch", transport.DefaultMaxBatch, "max messages per coalesced frame on the inter-shard fabric (shard mode; 1 disables batching)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, options{
		source:      *source,
		interval:    *interval,
		threshold:   *threshold,
		direction:   *direction,
		errAllow:    *errAllow,
		maxInterval: *maxInterval,
		window:      *window,
		listen:      *listen,
		events:      *events,
		duration:    *duration,
		stateFile:   *stateFile,
		eventsFile:  *eventsFile,
		alertHist:   *alertHist,
		alertTTL:    *alertTTL,
		shards:      *shards,

		shardID:       *shardID,
		peerListen:    *peerListen,
		peers:         *peers,
		beaconEvery:   *beaconEvery,
		suspectAfter:  *suspectAfter,
		deadAfter:     *deadAfter,
		snapshotEvery: *snapshotEvery,
		batchWindow:   *batchWindow,
		maxBatch:      *maxBatch,

		out: os.Stdout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "volleyd:", err)
		os.Exit(1)
	}
}

type options struct {
	source      string
	interval    time.Duration
	threshold   float64
	direction   string
	errAllow    float64
	maxInterval int
	window      int
	listen      string
	events      bool
	duration    time.Duration
	stateFile   string
	eventsFile  string        // JSONL decision-event sink, flushed on shutdown
	alertHist   string        // JSONL alert-history sink, flushed on shutdown
	alertTTL    time.Duration // live alerts expire after this re-raise silence
	shards      int           // > 0 switches to cluster mode (cluster.go)

	// Networked shard mode (shard.go): non-empty shardID switches the
	// daemon to one cluster shard speaking TCP to its peers.
	shardID       string
	peerListen    string
	peers         string
	beaconEvery   int
	suspectAfter  int
	deadAfter     int
	snapshotEvery int
	batchWindow   time.Duration
	maxBatch      int

	out      io.Writer
	onListen func(addr string) // test hook: reports the bound address
}

// event is one JSON log line.
type event struct {
	Time     time.Time `json:"time"`
	Kind     string    `json:"kind"` // "sample", "alert", "error"
	Value    float64   `json:"value,omitempty"`
	Interval int       `json:"interval,omitempty"`
	Bound    float64   `json:"bound,omitempty"`
	Err      string    `json:"err,omitempty"`
}

func run(ctx context.Context, opts options) error {
	if opts.shardID != "" {
		return runShard(ctx, opts)
	}
	if opts.shards > 0 {
		return runCluster(ctx, opts)
	}
	agent, err := buildAgent(opts.source)
	if err != nil {
		return err
	}
	if opts.interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	dir, err := parseDirection(opts.direction)
	if err != nil {
		return err
	}
	cfg := volley.SamplerConfig{
		Threshold:   opts.threshold,
		Direction:   dir,
		Err:         opts.errAllow,
		MaxInterval: opts.maxInterval,
	}

	var (
		sampler *volley.Sampler
		agg     *volley.AggregateSampler
	)
	if opts.window > 0 {
		agg, err = volley.NewAggregateSampler(cfg, volley.AggregateMean, opts.window)
	} else {
		sampler, err = volley.NewSampler(cfg)
	}
	if err != nil {
		return err
	}

	// State persistence: resume the learned interval and δ statistics
	// across daemon restarts. Aggregation windows are not persisted (the
	// held ring refills within one window).
	stateSampler := sampler
	if agg != nil {
		stateSampler = agg.Inner()
	}
	if opts.stateFile != "" {
		if err := restoreState(opts.stateFile, stateSampler); err != nil {
			return err
		}
		defer func() {
			if err := saveState(opts.stateFile, stateSampler); err != nil {
				fmt.Fprintln(os.Stderr, "volleyd: save state:", err)
			}
		}()
	}

	return runDaemon(ctx, opts, daemonSpec{node: "volleyd", tracerCap: 1024}, func(d *daemon) (mode, error) {
		var (
			samplesTotal   = d.reg.Counter("volley_sampler_observations_total", "Adaptive sampling operations.", "instance", "volleyd")
			alertsTotal    = d.reg.Counter("volleyd_alerts_total", "State alerts raised.")
			agentErrsTotal = d.reg.Counter("volleyd_agent_errors_total", "Failed sampling attempts.")
			intervalGauge  = d.reg.Gauge("volley_sampler_interval", "Current sampling interval in default intervals.", "instance", "volleyd")
			boundGauge     = d.reg.Gauge("volley_sampler_bound", "Last mis-detection bound.", "instance", "volleyd")
			valueGauge     = d.reg.Gauge("volleyd_last_value", "Most recently sampled value.")
		)
		stateSampler.Instrument(volley.SamplerObs{
			Tracer:       d.tracer,
			Node:         "volleyd",
			Task:         opts.source,
			Observations: samplesTotal,
			Grows:        d.reg.Counter("volley_sampler_interval_grows_total", "Interval growth decisions.", "instance", "volleyd"),
			Resets:       d.reg.Counter("volley_sampler_interval_resets_total", "Interval reset decisions.", "instance", "volleyd"),
			Interval:     intervalGauge,
			Bound:        boundGauge,
			BoundDist:    d.reg.Histogram("volley_sampler_bound_dist", "Distribution of mis-detection bounds.", volley.DefBoundBuckets, "instance", "volleyd"),
		})
		status := func() map[string]any {
			return map[string]any{
				"status":         "ok",
				"source":         opts.source,
				"uptime_seconds": d.uptime().Seconds(),
				"samples":        samplesTotal.Value(),
				"alerts":         alertsTotal.Value(),
				"agent_errors":   agentErrsTotal.Value(),
				"interval":       intervalGauge.Value(),
				"bound":          boundGauge.Value(),
			}
		}
		loop := func(ctx context.Context) error {
			return sampleLoop(ctx, opts, loopState{
				agent:    agent,
				sampler:  sampler,
				agg:      agg,
				tracer:   d.tracer,
				alerts:   alertsTotal,
				alertReg: d.alertReg,
				since:    d.uptime,
				errs:     agentErrsTotal,
				value:    valueGauge,
			})
		}
		return mode{status: status, now: d.uptime, loop: loop}, nil
	})
}

// loopState carries the sampling loop's collaborators.
type loopState struct {
	agent    func() (float64, error)
	sampler  *volley.Sampler
	agg      *volley.AggregateSampler
	tracer   *volley.Tracer
	alerts   *volley.Counter
	alertReg *volley.AlertRegistry
	since    func() time.Duration // the run clock stamping alert lifecycle ops
	errs     *volley.Counter
	value    *volley.Gauge
}

func sampleLoop(ctx context.Context, opts options, st loopState) error {
	enc := json.NewEncoder(opts.out)
	ticker := time.NewTicker(opts.interval)
	defer ticker.Stop()

	interval := 1
	untilNext := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		// TTL expiry runs on the raw tick clock, not the stretched sampling
		// clock, so an episode whose signal goes quiet still expires.
		st.alertReg.Tick(st.since())
		if untilNext > 0 {
			untilNext--
			continue
		}
		value, sampleErr := st.agent()
		now := time.Now()
		if sampleErr != nil {
			st.errs.Inc()
			_ = enc.Encode(event{Time: now, Kind: "error", Err: sampleErr.Error()})
			continue // retry at the next default interval
		}
		st.value.Set(value)

		var violating bool
		var bound float64
		if st.agg != nil {
			iv, obsErr := st.agg.Observe(value, interval)
			if obsErr != nil {
				return obsErr
			}
			interval = iv
			violating = st.agg.Violates()
			bound = st.agg.Bound()
			value = st.agg.Value()
		} else {
			interval = st.sampler.Observe(value)
			violating = st.sampler.Violates(value)
			bound = st.sampler.Bound()
		}
		untilNext = interval - 1

		kind := "sample"
		if violating {
			kind = "alert"
			st.alerts.Inc()
			st.tracer.Record(volley.TraceEvent{
				Type: volley.TraceViolation, Node: "volleyd", Task: opts.source,
				Value: value, Bound: bound, Interval: interval,
			})
			// A violating sample raises (or dedups into) the task's live
			// alert; a clean sample ends the episode.
			st.alertReg.Raise(opts.source, st.since(), value)
		} else {
			st.alertReg.Clear(opts.source, st.since(), value)
		}
		_ = enc.Encode(event{
			Time:     now,
			Kind:     kind,
			Value:    value,
			Interval: interval,
			Bound:    bound,
		})
	}
}

func parseDirection(s string) (volley.Direction, error) {
	switch strings.ToLower(s) {
	case "", "above":
		return volley.Above, nil
	case "below":
		return volley.Below, nil
	default:
		return 0, fmt.Errorf("unknown direction %q (want above or below)", s)
	}
}

// buildAgent turns the -source flag into a sampling function.
func buildAgent(source string) (func() (float64, error), error) {
	switch {
	case strings.HasPrefix(source, "cmd:"):
		cmdline := strings.TrimPrefix(source, "cmd:")
		if strings.TrimSpace(cmdline) == "" {
			return nil, fmt.Errorf("empty command in source %q", source)
		}
		return func() (float64, error) {
			out, err := exec.Command("sh", "-c", cmdline).Output()
			if err != nil {
				return 0, fmt.Errorf("run %q: %w", cmdline, err)
			}
			return parseNumber(string(out))
		}, nil
	case strings.HasPrefix(source, "workload:"):
		return buildWorkloadAgent(source)
	case strings.HasPrefix(source, "http://"), strings.HasPrefix(source, "https://"):
		client := &http.Client{Timeout: 10 * time.Second}
		return func() (float64, error) {
			resp, err := client.Get(source)
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("GET %s: status %d", source, resp.StatusCode)
			}
			body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			if err != nil {
				return 0, err
			}
			return parseNumber(string(body))
		}, nil
	case source == "":
		return nil, fmt.Errorf("missing -source")
	default:
		return nil, fmt.Errorf("unknown source %q (want cmd:<command>, an http(s) URL or workload:<family>)", source)
	}
}

// parseNumber extracts the first whitespace-delimited float from s.
func parseNumber(s string) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, fmt.Errorf("source produced no output")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("parse %q: %w", fields[0], err)
	}
	return v, nil
}

// saveState atomically writes the sampler's snapshot as JSON.
func saveState(path string, s *volley.Sampler) error {
	data, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restoreState loads a snapshot if the file exists; a missing file is a
// fresh start, not an error.
func restoreState(path string, s *volley.Sampler) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var st volley.SamplerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("state file %s: %w", path, err)
	}
	if err := s.Restore(st); err != nil {
		return fmt.Errorf("state file %s: %w", path, err)
	}
	return nil
}
