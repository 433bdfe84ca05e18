// Command perfbench is Volley's end-to-end benchmark. It drives the system
// the way volleyd does — one process, one driver goroutine, a virtual
// clock, each closed-loop round advancing the whole fleet one default
// interval — on one of three workloads, checks the outputs, and prints one
// JSON result line last.
//
//	perfbench --workload tenant-fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 a traced run times every call the benchmark
// makes into the system's modules and the result holds the per-layer
// metrics. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// deadline bounds a run: the harness must exit well within 180 s.
const deadline = 170 * time.Second

// rawSpanCap bounds the spans kept verbatim for the trace file; every span
// is aggregated regardless.
const rawSpanCap = 200000

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tick_p50_ms", "ms"},
	{"tick_p99_ms", "ms"},
	{"task_ticks_per_s", "1/s"},
	{"heap_bytes_per_task", "B"},
	{"fabric_msgs_per_task_tick", "msgs"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer a workload does not use reads zero.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"admit.p99_us", "us"},
		{"cluster.admit.calls", "count"}, {"cluster.admit.self_ms", "ms"}, {"cluster.admit.p99_us", "us"},
		{"cluster.tick.calls", "count"}, {"cluster.tick.self_ms", "ms"},
		{"cluster.update.calls", "count"}, {"cluster.update.self_ms", "ms"},
		{"cluster.evict.calls", "count"}, {"cluster.evict.self_ms", "ms"},
	}
	for _, k := range []string{"local_violation", "poll_response", "yield_report", "heartbeat"} {
		defs = append(defs, metricDef{"coord.handle." + k + ".calls", "count"}, metricDef{"coord.handle." + k + ".self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"coord.polls", "count"}, metricDef{"coord.alerts", "count"}, metricDef{"coord.poll_yield", "ratio"},
		metricDef{"coord.misdetect_rate", "ratio"},
		metricDef{"monitor.tick.calls", "count"}, metricDef{"monitor.tick.self_ms", "ms"},
		metricDef{"monitor.handle.calls", "count"}, metricDef{"monitor.handle.self_ms", "ms"},
		metricDef{"monitor.new.calls", "count"}, metricDef{"monitor.new.self_ms", "ms"},
		metricDef{"monitor.samples", "count"}, metricDef{"monitor.poll_samples", "count"},
		metricDef{"monitor.sampling_ratio", "ratio"},
		metricDef{"agent.sample.calls", "count"}, metricDef{"agent.sample.self_ms", "ms"},
	)
	for _, k := range []string{"local_violation", "poll_request", "poll_response", "yield_report", "err_assignment", "heartbeat"} {
		defs = append(defs, metricDef{"transport.send." + k + ".calls", "count"})
	}
	defs = append(defs,
		metricDef{"transport.send.self_ms", "ms"}, metricDef{"transport.send.errors", "count"},
		metricDef{"tcp.send.calls", "count"}, metricDef{"tcp.send.self_ms", "ms"},
		metricDef{"tcp.bytes_sent", "B"}, metricDef{"tcp.frames_batched", "count"},
		metricDef{"tcp.queue_full", "count"}, metricDef{"tcp.dropped", "count"}, metricDef{"tcp.reconnects", "count"},
		metricDef{"tcp.bytes_per_task_tick", "B"},
		metricDef{"fleet.failed_ratio", "ratio"},
		metricDef{"sketch.observe.calls", "count"}, metricDef{"sketch.observe.self_ms", "ms"},
		metricDef{"sketch.resident_bytes", "B"},
		metricDef{"gate.calls", "count"}, metricDef{"gate.self_ms", "ms"}, metricDef{"gate.arms", "count"},
		metricDef{"gate.relaxed_share", "ratio"},
		metricDef{"alerts.raised", "count"}, metricDef{"alerts.deduped", "count"},
		metricDef{"alerts.resolved", "count"}, metricDef{"alerts.open", "count"},
		metricDef{"alerts.detect_delay_p50_ticks", "ticks"}, metricDef{"alerts.detect_delay_p90_ticks", "ticks"},
		metricDef{"node.admit.calls", "count"}, metricDef{"node.admit.self_ms", "ms"},
		metricDef{"node.remove.calls", "count"}, metricDef{"node.remove.self_ms", "ms"},
		metricDef{"node.tick.calls", "count"}, metricDef{"node.tick.self_ms", "ms"}, metricDef{"node.tick.p99_us", "us"},
	)
	for _, k := range []string{"beacon", "snapshot", "ack"} {
		defs = append(defs, metricDef{"node.handle." + k + ".calls", "count"}, metricDef{"node.handle." + k + ".self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"node.host.calls", "count"}, metricDef{"node.host.self_ms", "ms"},
		metricDef{"node.beacon_bytes", "B"}, metricDef{"node.snapshot_bytes", "B"},
		metricDef{"node.snapshot_ack_ratio", "ratio"},
		metricDef{"node.converge_ticks", "ticks"}, metricDef{"node.owner_conflicts", "tasks"},
		metricDef{"membership.suspect", "count"}, metricDef{"membership.dead", "count"},
		metricDef{"runtime.allocs_per_tick", "count"}, metricDef{"runtime.bytes_per_tick", "B"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"driver.self_ms", "ms"}, metricDef{"trace.round_ms", "ms"}, metricDef{"trace.layer_share", "ratio"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.tick_p50_ms", "ms"}, metricDef{"trace.untraced_tick_p50_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return defs
}()

// report is one run's outcome: metric values by name, informational
// lines, operations attempted and failed, and output-check failures.
type report struct {
	values    map[string]float64
	info      []string
	attempted int
	failed    []string
	checks    []string
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// span copies a recorded span name's calls and self time into metrics.
func (r *report) span(rec *recorder, span, prefix string) spanAgg {
	a := rec.stat(span)
	r.set(prefix+".calls", float64(a.calls))
	r.set(prefix+".self_ms", ms(a.self))
	return a
}

func main() {
	name := flag.String("workload", "", "workload: tenant-fleet, entropy-wide or federation-tcp")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured duration of the run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", "", "directory for the result file and the span trace (optional)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	dur := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1

	rep := &report{values: make(map[string]float64)}
	refBefore := hostReference()
	var rec *recorder
	switch *name {
	case "tenant-fleet", "entropy-wide":
		build := tenantFleet
		if *name == "entropy-wide" {
			build = entropyWide
		}
		w, err := build(*seed)
		if err != nil {
			fail(err)
		}
		r, err := runPlane(w, dur, traced, rawSpanCap)
		if err != nil {
			fail(err)
		}
		planeReport(rep, w, r)
		rec = r.rec
	case "federation-tcp":
		r, err := runFederation(*seed, dur, traced, rawSpanCap)
		if err != nil {
			fail(err)
		}
		fedReport(rep, r)
		rec = r.rec
	default:
		fail(fmt.Errorf("unknown workload %q (want tenant-fleet, entropy-wide or federation-tcp)", *name))
	}
	rep.infof("gomaxprocs %d, numcpu %d, %s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep.infof("host reference ms: before %.4g, after %.4g", refBefore, hostReference())

	defs, other := endToEnd, perLayer
	if traced {
		defs, other = perLayer, endToEnd
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			fail(fmt.Errorf("metric %s was not measured", d.name))
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	printTable(rep, defs, other)
	if *out != "" {
		if err := writeOutputs(*out, *name, *seed, *trace, rep, rec); err != nil {
			fail(err)
		}
	}
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", c)
	}
	for _, f := range rep.failed {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.checks) == 0,
		"attempted": rep.attempted,
		"failed":    len(rep.failed),
		"metrics":   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}

// printTable prints the informational lines, then the reported metrics,
// then, in parentheses, whatever else the run measured.
func printTable(rep *report, reported, other []metricDef) {
	for _, l := range rep.info {
		fmt.Println("#", l)
	}
	for _, d := range reported {
		fmt.Printf("%-36s %16.6g %s\n", d.name, rep.values[d.name], d.unit)
	}
	for _, d := range other {
		if v, ok := rep.values[d.name]; ok {
			fmt.Printf("  (%s %.6g %s)\n", d.name, v, d.unit)
		}
	}
}

// writeOutputs writes the full result (every measured value plus the
// informational lines) and, for a traced run, the span trace.
func writeOutputs(dir, workload string, seed int64, trace int, rep *report, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace))
	body, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "info": rep.info, "values": rep.values,
		"checks": rep.checks, "failed": rep.failed,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", body, 0o644); err != nil {
		return err
	}
	if trace == 1 {
		return rec.writeCSV(base + ".spans.csv")
	}
	return nil
}

// hostReference times a fixed computation that calls none of the
// system's code — sorting 100k pseudo-random ints — and returns the median
// of five, in ms. Printed for the start and end of every run, it tells a
// slower host apart from slower code when runs are compared.
func hostReference() float64 {
	xs := make([]int, 100000)
	times := make([]float64, 5)
	for k := range times {
		x := 1
		for i := range xs {
			x = x*1103515245 + 12345
			xs[i] = x % 1000003
		}
		start := time.Now()
		sort.Ints(xs)
		times[k] = ms(time.Since(start))
	}
	return median(times)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
