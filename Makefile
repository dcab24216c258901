# DepFast-Go developer entry points. Everything is plain `go` commands;
# the Makefile just names the common ones.

GO ?= go

.PHONY: all check build vet test race bench examples figures verify report-smoke shard-smoke replace-smoke explore-smoke trace-smoke bench-smoke hedge-smoke perfbench-smoke loc clean

all: check

# The default gate: compile, vet, test.
check: build vet test

build:
	$(GO) build ./...

# go vet plus depfast-vet, the programming-model analyzer: unbounded
# waits, scheduler blocking, raw goroutines, and framework-split
# violations in logic packages fail the build unless annotated with a
# justified //depfast:allow.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/depfast-vet ./...

test:
	$(GO) test ./...

# Race-detect every package. The seconds-long experiment suites under
# internal/ are where most of the signal is, but the cmd/ and examples/
# trees now carry their own concurrency (REPL spawns, shutdown paths),
# so the whole module runs under the detector.
race:
	$(GO) test -race ./...

# Every table/figure of the paper plus the ablations, as benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# Regenerate the paper's evaluation from the CLI (a few minutes).
figures:
	$(GO) run ./cmd/depfast-bench -exp all

verify:
	$(GO) run ./cmd/depfast-bench -exp verify

# Flight-recorder smoke: a quick mitigated run recorded to a timeline,
# piped through the report tool (non-zero MTTD/MTTR expected).
report-smoke:
	$(GO) run ./cmd/depfast-bench -exp mitigation -quick -timeline /tmp/depfast-timeline.jsonl
	$(GO) run ./cmd/depfast-report /tmp/depfast-timeline.jsonl

# Sharded-KV smoke: the blast-radius containment experiment at CI
# scale — one disk-slow shard leader, per-shard + aggregate table.
shard-smoke:
	$(GO) run ./cmd/depfast-bench -exp shard -quick

# Replacement smoke: a disk-slow follower is detected, quarantined,
# condemned, removed, and replaced by a spare joined as a learner —
# the whole sequence printed from the flight recorder.
replace-smoke:
	$(GO) run ./cmd/depfast-bench -exp replace

# Schedule-explorer smoke: a fixed-seed 50-schedule budget, race-clean,
# covering both topologies and every scenario class (correlated
# domains, asymmetric network, churn-over-fault, storms), all
# invariants green; also emits the exploration throughput benchmark
# (schedules/sec, invariant-check latency) to BENCH_explore.json.
explore-smoke:
	$(GO) run -race ./cmd/depfast-explore -seed 1 -budget 50 -quick -v -bench BENCH_explore.json

# Causal-tracing smoke: run the trace experiment once (disk-slow
# leader, head sampling + tail promotion) and gate on its two
# acceptance numbers — >=90% of tail-promoted traces blame the injected
# (node, resource), and tracing costs <5% throughput.
trace-smoke:
	$(GO) run -race ./cmd/depfast-bench -exp trace -quick

# Raft throughput/latency matrix (conc x value-size) at CI scale,
# emitted to BENCH_raft.json for artifact upload.
bench-smoke:
	$(GO) run ./cmd/depfast-bench -exp raftbench -quick -out BENCH_raft.json

# Request-hedging smoke: a sub-detection-threshold fail-slow episode,
# speculation off vs on, gated on read-tail gain >= 2x, a linearizable
# audit history, zero acked-write loss, and a silent server-side
# detector plane; phase latencies emitted to BENCH_hedge.json.
hedge-smoke:
	$(GO) run -race ./cmd/depfast-bench -exp hedge -quick -out BENCH_hedge.json

# Repository-benchmark smoke: one short window of each BENCHMARK.json
# workload, gated on the benchmark's correctness checks (convergence,
# replica agreement, provenance, no acked-write loss, and
# linearizability on read-lease) through its exit code. The numbers are
# printed, not gated. read-lease needs a 30 s window to support its
# write p99; a shorter one exits with code 2.
perfbench-smoke:
	bash _perfbench/run.sh --workload write-saturate --seed 1 --seconds 5 --trace 0
	bash _perfbench/run.sh --workload read-lease --seed 1 --seconds 30 --trace 0

# Non-test Go lines of code per internal/ and cmd/ package, plus their
# total — the size ledger for "the same behaviour from the least code".
# Prints only; nothing is gated on it.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... | \
	{ total=0; while read -r pkg files; do \
		n=$$(cat $$files | wc -l); total=$$((total + n)); \
		printf '%7d  %s\n' "$$n" "$${pkg#depfast/}"; \
	done; printf '%7d  total\n' "$$total"; }

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fastpath
	$(GO) run ./examples/broadcast
	$(GO) run ./examples/spg
	$(GO) run ./examples/kvcluster

clean:
	$(GO) clean ./...
