// The runtime every volleyd mode runs on. A mode supplies only what
// really differs — its tracer capacity, its alert-registry node name,
// whether -listen is required, its /healthz payload, its clock, its own
// routes and its loop — and runDaemon owns the rest: the JSONL sinks, the
// decision tracer, the metrics registry with build info and uptime, the
// alert registry, expvar, the shared HTTP surface and the listener
// lifecycle.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"volley"
)

// maxRequestBody bounds every volleyd request body; decodeJSON answers
// 413 for anything larger.
const maxRequestBody = 1 << 20

// daemonSpec is what differs between the modes' runtimes.
type daemonSpec struct {
	node          string // alert-registry node name
	tracerCap     int    // decision-event ring capacity
	requireListen bool   // the mode's control plane is HTTP
}

// daemon is the runtime state every mode shares; the cluster modes embed
// it.
type daemon struct {
	opts     options
	start    time.Time
	tracer   *volley.Tracer
	reg      *volley.Metrics
	alertReg *volley.AlertRegistry
}

// uptime is the wall clock since daemon start, the tracer's time base.
func (d *daemon) uptime() time.Duration { return time.Since(d.start) }

// mode is one volleyd mode plugged into the runtime.
type mode struct {
	status func() map[string]any       // the /healthz and expvar payload
	now    func() time.Duration        // the clock alert ack/resolve are stamped with
	routes func(*http.ServeMux)        // the mode's own routes; nil for none
	loop   func(context.Context) error // runs until ctx ends
	close  func() error                // releases what setup opened; nil for nothing
}

// runDaemon builds the shared runtime, lets setup build the mode on it and
// serves the HTTP surface while the mode's loop runs. Shutdown is
// graceful: stop accepting, drain in-flight requests, and flush the JSONL
// sinks on every exit path so the tail of a run is never lost.
func runDaemon(ctx context.Context, opts options, spec daemonSpec, setup func(*daemon) (mode, error)) (err error) {
	if spec.requireListen && opts.listen == "" {
		return fmt.Errorf("this mode needs -listen (the control plane is HTTP)")
	}
	eventsSink, err := openFileSink(opts.eventsFile)
	if err != nil {
		return err
	}
	historySink, err := openFileSink(opts.alertHist)
	if err != nil {
		return errors.Join(err, eventsSink.Close())
	}
	defer func() { err = errors.Join(err, closeSinks(eventsSink, historySink)) }()

	// Instruments are atomic, so the HTTP handlers may read them while the
	// mode's loop writes.
	d := &daemon{opts: opts, start: time.Now(), reg: volley.NewMetrics()}
	tracerOpts := []volley.TracerOption{volley.WithTraceClock(d.uptime)}
	if opts.events {
		tracerOpts = append(tracerOpts, volley.WithTraceJSONL(opts.out))
	}
	if eventsSink != nil {
		tracerOpts = append(tracerOpts, volley.WithTraceJSONL(eventsSink))
	}
	d.tracer = volley.NewTracer(spec.tracerCap, tracerOpts...)
	volley.RegisterBuildInfo(d.reg, d.start)
	d.reg.GaugeFunc("volleyd_uptime_seconds", "Seconds since daemon start.", func() float64 {
		return d.uptime().Seconds()
	})
	alertCfg := volley.AlertConfig{Node: spec.node, TTL: opts.alertTTL, Metrics: d.reg, Tracer: d.tracer}
	if historySink != nil {
		alertCfg.History = historySink
	}
	d.alertReg = volley.NewAlertRegistry(alertCfg)

	m, err := setup(d)
	if err != nil {
		return err
	}
	if m.close != nil {
		defer func() { err = errors.Join(err, m.close()) }()
	}
	publishExpvar(m.status)

	// The listener is created synchronously so ":0" works in tests
	// (onListen reports the bound address) and a bad -listen value fails
	// fast instead of dying silently in a goroutine.
	var (
		srv      *http.Server
		serveErr chan error
	)
	if opts.listen != "" {
		ln, err := net.Listen("tcp", opts.listen)
		if err != nil {
			return err
		}
		if opts.onListen != nil {
			opts.onListen(ln.Addr().String())
		}
		srv = &http.Server{Handler: d.mux(m)}
		serveErr = make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
	}

	if opts.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.duration)
		defer cancel()
	}
	loopErr := m.loop(ctx)
	if srv == nil {
		return loopErr
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return errors.Join(loopErr, err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(loopErr, err)
	}
	return loopErr
}

// mux is the one HTTP surface: the observability and alert routes every
// mode serves, then the mode's own routes.
func (d *daemon) mux(m mode) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
		d.tracer.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, m.status())
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, d.tracer.Events())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	registerAlertRoutes(mux, d.alertReg, m.now)
	if m.routes != nil {
		m.routes(mux)
	}
	return mux
}

// writeJSON answers v as a JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeJSON decodes a request body of at most maxRequestBody bytes into
// v. On failure it has already answered — 413 for an oversized body, 400
// otherwise — and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, err)
	return false
}

// currentStatus lets the process-global expvar publication follow the most
// recent run (tests run the daemon repeatedly; expvar.Publish panics on
// duplicate names, so the var is published once and re-pointed per run).
var currentStatus atomic.Value // of func() map[string]any

func publishExpvar(status func() map[string]any) {
	currentStatus.Store(status)
	if expvar.Get("volleyd") != nil {
		return
	}
	expvar.Publish("volleyd", expvar.Func(func() any {
		if fn, ok := currentStatus.Load().(func() map[string]any); ok {
			return fn()
		}
		return nil
	}))
}
