package main

import (
	"strings"
	"time"

	"volley/internal/transport"
)

// ticks reports the percentiles of the timed ticks and the task-tick
// throughput of the timed rounds. The percentiles are taken in
// consecutive blocks of block ticks (one block of all when block is 0),
// and their median over blocks is reported.
func (r *report) ticks(ds, rounds []time.Duration, tasks float64, block int) {
	xs := inUnits(ds, time.Millisecond)
	if block == 0 {
		block = len(xs)
	}
	var p50s, p99s []float64
	for i := 0; i+block <= len(xs); i += block {
		b := append([]float64(nil), xs[i:i+block]...)
		p50s = append(p50s, quantile(b, 0.5))
		p99s = append(p99s, quantile(b, 0.99))
	}
	r.infof("tick ms per block of %d ticks: p50 %.4g, p99 %.4g", block, p50s, p99s)
	r.infof("tick ms over %d ticks: p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g p99 %.4g max %.4g",
		len(xs), quantile(xs, 0.1), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75),
		quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1))
	r.set("tick_p50_ms", median(p50s))
	r.set("tick_p99_ms", median(p99s))
	r.set("task_ticks_per_s", tasks*float64(len(rounds))/sum(rounds).Seconds())
}

// zeroLayers sets every per-layer metric under the given prefixes that the
// run did not measure to zero: the workload does not use that layer.
func (r *report) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}

// sends reports the Memory fabric's traced sends.
func (r *report) sends(rec *recorder, perKind [maxKind]uint64, errors uint64) {
	r.set("transport.send.self_ms", ms(rec.stat("transport.send").self))
	r.set("transport.send.errors", float64(errors))
	for _, k := range []transport.Kind{
		transport.KindLocalViolation, transport.KindPollRequest, transport.KindPollResponse,
		transport.KindYieldReport, transport.KindErrAssignment, transport.KindHeartbeat,
	} {
		r.set("transport.send."+kindName(k)+".calls", float64(perKind[k]))
	}
}

// runtimeLayer reports allocation and GC activity per round.
func (r *report) runtimeLayer(rt runtimeDelta, rounds int) {
	n := float64(rounds)
	r.set("runtime.allocs_per_tick", ratio(float64(rt.mallocs), n))
	r.set("runtime.bytes_per_tick", ratio(float64(rt.bytes), n))
	r.set("runtime.gc_cycles", float64(rt.gcs))
	r.set("runtime.gc_pause_ms", ms(rt.pause))
}

// traceLayer reports how the driver's round time splits between the
// benchmark's own work and the layers' spans, and the tracing overhead.
func (r *report) traceLayer(rec *recorder, traced, untraced []float64) {
	round := rec.stat("driver.round")
	r.set("driver.self_ms", ms(round.self))
	r.set("trace.round_ms", ms(round.total))
	r.set("trace.layer_share", ratio(float64(round.total-round.self), float64(round.total)))
	r.set("trace.spans", float64(rec.total))
	var tp, up, overhead float64
	if len(traced) > 0 && len(untraced) > 0 {
		tp, up = median(traced), median(untraced)
		overhead = tp/up - 1
	}
	r.set("trace.tick_p50_ms", tp)
	r.set("trace.untraced_tick_p50_ms", up)
	r.set("trace.overhead_ratio", overhead)
}

// planeReport turns a data-plane run into metrics.
func planeReport(rep *report, w *planeWorkload, r *planeRun) {
	c := r.counts
	tasks := float64(r.tasks)
	rep.set("setup_s", median(inUnits(r.setups, time.Second)))
	rep.ticks(r.ticks, r.ticks, tasks, r.period)
	rep.admits(r.admits)
	rep.set("heap_bytes_per_task", r.heapBytes/tasks)
	rep.set("fabric_msgs_per_task_tick", float64(r.timedMsgs)/tasks/float64(len(r.ticks)))

	// Virtual-clock quality measures over rounds 1..checkRounds.
	rep.set("monitor.samples", float64(c.samples))
	rep.set("monitor.poll_samples", float64(c.pollSamples))
	rep.set("monitor.sampling_ratio", ratio(float64(c.samples+c.pollSamples), float64(c.monitorTicks)))
	rep.set("coord.misdetect_rate", ratio(float64(c.missed), float64(c.windows)))
	rep.set("coord.polls", float64(c.polls))
	rep.set("coord.alerts", float64(c.globalAlerts))
	rep.set("coord.poll_yield", ratio(float64(c.globalAlerts), float64(c.polls)))
	rep.set("alerts.raised", float64(c.raised))
	rep.set("alerts.deduped", float64(c.deduped))
	rep.set("alerts.resolved", float64(c.resolved))
	rep.set("alerts.open", float64(r.fleetA.open))
	delays := append([]float64(nil), r.delays...)
	p50, p90 := 0.0, 0.0
	if len(delays) > 0 {
		p50, p90 = quantile(delays, 0.5), quantile(delays, 0.9)
	}
	rep.set("alerts.detect_delay_p50_ticks", p50)
	rep.set("alerts.detect_delay_p90_ticks", p90)
	rep.set("gate.arms", float64(c.gateArms))
	rep.set("sketch.resident_bytes", float64(r.fleetA.sketchBytes))
	// Failures over admissions, agent samples and network sends.
	failed := float64(len(r.failed)) + float64(r.fleetA.sendErrors)
	rep.set("fleet.failed_ratio", ratio(failed, float64(c.admissions+c.agentReads+c.fabricMsgs)))

	// Spans of the traced fleet (all zero in an untraced run).
	rec := r.rec
	a := rep.span(rec, "cluster.admit", "cluster.admit")
	rep.set("cluster.admit.p99_us", 0)
	if len(a.durs) > 0 {
		rep.set("cluster.admit.p99_us", quantile(inUnits(a.durs, time.Microsecond), 0.99))
	}
	rep.span(rec, "cluster.tick", "cluster.tick")
	rep.span(rec, "cluster.update", "cluster.update")
	rep.span(rec, "cluster.evict", "cluster.evict")
	for _, k := range []string{"local_violation", "poll_response", "yield_report", "heartbeat"} {
		rep.span(rec, "coord.handle."+k, "coord.handle."+k)
	}
	rep.span(rec, "monitor.tick", "monitor.tick")
	rep.span(rec, "monitor.handle", "monitor.handle")
	rep.span(rec, "monitor.new", "monitor.new")
	rep.span(rec, "agent.sample", "agent.sample")
	rep.span(rec, "sketch.observe", "sketch.observe")
	rep.span(rec, "gate", "gate")
	rep.set("gate.relaxed_share", ratio(float64(r.fleetA.gateRelaxed), float64(r.fleetA.gateCalls)))
	rep.sends(rec, r.fleetA.sends, r.fleetA.sendErrors)
	rep.runtimeLayer(r.rt, r.rtRounds)
	rep.traceLayer(rec, r.checkTicksA, r.checkTicksB)
	rep.zeroLayers("tcp.", "node.", "membership.")

	monitors := 0
	for i := range w.defs {
		monitors += len(w.defs[i].addrs)
	}
	rep.infof("workload %s: %d tasks, %d monitors, %d shards, %d-window series (generated in %.3f s, outside every timing)",
		w.name, len(w.defs), monitors, w.shards, len(w.defs[0].global), w.genTime.Seconds())
	rep.infof("setups %d; admissions timed %d; timed rounds %d after %d warm-up rounds",
		len(r.setups), len(r.admits), len(r.ticks), w.warmup)
	rep.infof("virtual-clock counts over rounds 1..%d (repeated exactly by a second fleet): %+v", w.checkRounds, c)
	rep.infof("episodes %d, detected %d", c.episodes, c.detected)
	rep.attempted, rep.failed, rep.checks = r.attempted, r.failed, r.checks
}

// fedReport turns a federation-tcp run into metrics.
func fedReport(rep *report, r *fedRun) {
	rows := float64(r.rows)
	rep.set("setup_s", median(inUnits(r.setups, time.Second)))
	rep.ticks(r.ticks, r.rounds, rows, 0)
	rep.admits(r.admits)
	rep.set("heap_bytes_per_task", r.heapBytes/rows)
	rep.set("fabric_msgs_per_task_tick", float64(r.healthy.Sent)/rows/float64(r.healthyRounds))

	rep.set("node.converge_ticks", median(r.converge))
	rep.set("node.owner_conflicts", median(r.conflicts))
	rep.set("tcp.bytes_per_task_tick", float64(r.healthy.BytesSent)/rows/float64(r.healthyRounds))
	var calls uint64
	for _, n := range r.sendCalls {
		calls += n
	}
	// A send refused at enqueue (queue full) or dropped by the writer
	// counts as failed; Dropped includes the queue-full refusals.
	failedSends := r.refused + r.tcp.Dropped - r.tcp.QueueFull
	rep.set("fleet.failed_ratio", ratio(float64(failedSends)+float64(len(r.failed)), float64(calls)+float64(len(r.admits))))
	rep.set("tcp.bytes_sent", float64(r.tcp.BytesSent))
	rep.set("tcp.frames_batched", float64(r.tcp.FramesBatched))
	rep.set("tcp.queue_full", float64(r.tcp.QueueFull))
	rep.set("tcp.dropped", float64(r.tcp.Dropped))
	rep.set("tcp.reconnects", float64(r.tcp.Reconnects))
	rep.set("node.beacon_bytes", ratio(float64(r.sendBytes[transport.KindShardBeacon]), float64(r.sendCalls[transport.KindShardBeacon])))
	rep.set("node.snapshot_bytes", ratio(float64(r.sendBytes[transport.KindSnapshot]), float64(r.sendCalls[transport.KindSnapshot])))
	rep.set("node.snapshot_ack_ratio", ratio(float64(r.acks), float64(r.shipped)))
	rep.set("membership.suspect", float64(r.suspects))
	rep.set("membership.dead", float64(r.deaths))

	rec := r.rec
	rep.span(rec, "node.admit", "node.admit")
	rep.span(rec, "node.remove", "node.remove")
	t := rep.span(rec, "node.tick", "node.tick")
	rep.set("node.tick.p99_us", 0)
	if len(t.durs) > 0 {
		rep.set("node.tick.p99_us", quantile(inUnits(t.durs, time.Microsecond), 0.99))
	}
	for _, k := range []string{"beacon", "snapshot", "ack"} {
		rep.span(rec, "node.handle."+k, "node.handle."+k)
	}
	rep.span(rec, "node.host", "node.host")
	rep.span(rec, "tcp.send", "tcp.send")
	rep.sends(rec, r.local, r.localErrs)
	rep.runtimeLayer(r.rt, r.rtRounds)
	rep.traceLayer(rec, inUnits(r.traced, time.Millisecond), inUnits(r.ticks, time.Millisecond))
	rep.zeroLayers("cluster.", "coord.", "monitor.", "agent.", "sketch.", "gate.", "alerts.")

	rep.infof("workload federation-tcp: 2 nodes over loopback TCP, %d catalog rows, %d stub monitors per task", r.rows, fedMonitors)
	rep.infof("episodes %d of %d rounds (converge %d, steady %d, settle %d); untraced node ticks %d, traced node ticks %d; admissions timed %d",
		r.episodes, fedConverge+fedSteady+fedSettle, fedConverge, fedSteady, fedSettle, len(r.ticks), len(r.traced), len(r.admits))
	rep.infof("tcp sends %d, refused at enqueue %d, dropped %d (queue full %d); snapshots shipped %d, acked %d; membership suspects %d, deaths %d",
		calls, r.refused, r.tcp.Dropped, r.tcp.QueueFull, r.shipped, r.acks, r.suspects, r.deaths)
	rep.infof("owner conflicts at episode end (of %d live tasks): %v; converge ticks: %v", r.rows, r.conflicts, r.converge)
	rep.attempted, rep.failed, rep.checks = r.attempted, r.failed, r.checks
}

// admits reports the p99 of whole admissions, with more quantiles in the
// info lines.
func (r *report) admits(ds []time.Duration) {
	xs := inUnits(ds, time.Microsecond)
	r.infof("admission us over %d: p10 %.4g p50 %.4g p90 %.4g p99 %.4g max %.4g",
		len(xs), quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1))
	r.set("admit.p99_us", quantile(xs, 0.99))
}
