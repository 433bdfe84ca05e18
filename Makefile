# Development targets. `make check` is the CI gate: vet + race-detector
# tests across every package.

GO ?= go

.PHONY: build vet test race check soak bench bench-json bench-coord bench-cluster bench-transport bench-alerts bench-streaming bench-workloads examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: vet race

# The process-level crash/recovery soak: three real volleyd shard
# processes over TCP, kill -9 the task owner, and require a warm takeover
# seeded from the replicated allowance snapshot. Writes a recovery-time
# summary to SOAK_recovery.json.
soak:
	VOLLEY_SOAK=1 VOLLEY_SOAK_OUT=$(CURDIR)/SOAK_recovery.json \
		$(GO) test -race -run TestShardSoakKill9 -v -timeout 90s ./cmd/volleyd

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Regenerate the committed headline-metrics snapshot: sampling ratios,
# mis-detection rates and per-figure wall clock on the quick preset.
bench-json:
	$(GO) run ./cmd/volleybench -preset quick -json BENCH_quick.json

# Benchmark the coordinator rebalance hot path at 100/1k/10k monitors and
# snapshot ns/op + allocs/op (must be 0) to BENCH_coord.json.
bench-coord:
	$(GO) run ./cmd/volleybench -coordjson BENCH_coord.json

# Benchmark consistent-hash task placement at 4/16/64 shards and snapshot
# ns/op, allocs/op (must be 0) and the one-shard-removal movement fraction
# to BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/volleybench -clusterjson BENCH_cluster.json

# Benchmark the binary wire codec (encode ns/msg and allocs/op — must be
# 0 — with the stdlib gob encoder as a reference row) and end-to-end
# loopback TCP throughput, unbatched vs batched binary, to
# BENCH_transport.json. The headline: batched over unbatched msgs/sec and
# wire bytes/msg, and 0 encode allocs.
bench-transport:
	$(GO) run ./cmd/volleybench -transportjson BENCH_transport.json

# Benchmark the alert registry hot paths (dedup raise and local observe —
# allocs/op must be 0 — plus the full open/resolve lifecycle and snapshot
# export) to BENCH_alerts.json.
bench-alerts:
	$(GO) run ./cmd/volleybench -alertsjson BENCH_alerts.json

# Benchmark the bounded-memory streaming threshold stack: resident bytes
# per series at 3k/30k/300k-step traces (streaming must plateau while
# exact grows 10x per decade), steady-state ns/Observe (0 allocs/op),
# grid-refresh cost vs the sorted-copy baseline on a 100k-step trace, a
# million-series soak, and the sketch-vs-exact rank-error audit on both
# presets. Snapshots to BENCH_streaming.json.
bench-streaming:
	$(GO) run ./cmd/volleybench -streamingjson BENCH_streaming.json

# Run the workload families (entropy-of-flow DDoS detection and the
# multi-tenant SLO colocation with correlation-gated monitoring) end to
# end on the quick preset and snapshot the savings-vs-misdetection curves
# to BENCH_workloads.json. The headline gates: Volley beats the uniform
# baseline at equal misdetection on every entropy point, and the gated
# tenant run keeps episode recall >= 0.7 while cutting sampling cost.
bench-workloads:
	$(GO) run ./cmd/volleybench -preset quick -workloadjson BENCH_workloads.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ddos
	$(GO) run ./examples/webapp
	$(GO) run ./examples/memfloor
	$(GO) run ./examples/tcpcluster
	$(GO) run ./examples/cluster
