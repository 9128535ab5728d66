# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race cover bench bench-batch bench-cluster bench-check bench-baseline figures examples fuzz chaos chaos-cluster metrics clean lint-capabilities

all: build lint-capabilities test

build:
	go build ./...
	go vet ./...

# Capability dispatch must go through kv.As so it survives wrapper stacks.
# Direct assertions to the kv capability interfaces outside package kv (only
# there is the qualified `kv.` form used) fail the build. `var _ kv.Batch`
# implementation asserts and `case *kv.Batch:` Intercepts switches do not
# match the pattern and stay legal.
lint-capabilities:
	@matches=$$(grep -rEn --include='*.go' \
		'\.\(kv\.(Versioned|VersionedBatch|Batch|Expiring|SQL|CompareAndPut)\)' . || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint-capabilities: direct capability type assertions found; use kv.As[T] (see DESIGN.md "Middleware architecture")' >&2; \
		exit 1; \
	fi

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

# Short fuzz passes: the RESP protocol reader (internal/resp/fuzz_test.go),
# the minisql storage engine's page decoder + B-tree operations
# (internal/minisql/storage_fuzz_test.go), and the gzip encoder against the
# standard library's decoder (internal/pack/deflate_test.go).
fuzz:
	go test ./internal/resp -run='^$$' -fuzz=FuzzRead -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzPageDecode -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzBTreeOps -fuzztime=10s
	go test ./internal/pack -run='^$$' -fuzz=FuzzCompress -fuzztime=10s

# The chaos conformance suite at aggressive settings: 4x the operations,
# doubled fault rates, race detector on — every store must still pass.
chaos:
	EDSC_CHAOS=aggressive go test -race -run 'Chaos' ./...

# The node-kill chaos suite: whole backend nodes die and restart under the
# replicated cluster tier while the linearizability checker watches, plus
# the cluster conformance (quorum loss, hinted handoff, read repair,
# membership change under load) — race detector on.
chaos-cluster:
	EDSC_CHAOS=aggressive go test -race -run 'TestClusterChaos|TestClusterSuite' -v ./kv/cluster

bench:
	go test -bench=. -benchmem .

# The gated hot-path experiments (internal/benchkit.Experiments): allocation
# profile, miniredis mux and cloudsim HTTP closed loops, paged SQL engine,
# commit pipeline. Re-measure all five and fail on any regression against
# the committed baseline — guarded allocs/op +20%, ops/sec floor, p99
# ceiling, errors, and each experiment's speedup/ratio gates — the same
# single step CI runs.
bench-check:
	go run ./cmd/udsm-bench -exp alloc,mux,http,sql,commit -json /tmp/edsc-bench.json -baseline BENCH_GATES.json

# Re-measure the five experiments, rewrite the committed baseline
# BENCH_GATES.json and their results/ext_*.dat series. Commit the result.
bench-baseline:
	go run ./cmd/udsm-bench -exp alloc,mux,http,sql,commit -out results -json BENCH_GATES.json

# Batched multi-key ablation (one bulk round trip vs a per-key loop) plus
# the per-store speedup sweep into results/ext_batch_speedup.dat.
bench-batch:
	go test -bench=BenchmarkAblationBatch -benchmem .
	go run ./cmd/udsm-bench -fig batch -out results -scale 0.05

# Cluster-tier scaling sweep (miniredis-backed nodes at N=1,3,5) into
# results/ext_cluster_scaling.dat.
bench-cluster:
	go run ./cmd/udsm-bench -fig cluster -out results

# Regenerate every figure's data series into results/ (see EXPERIMENTS.md).
figures:
	go run ./cmd/udsm-bench -fig all -out results -scale 0.05 -runs 4 -ops 2

examples:
	go run ./examples/quickstart
	go run ./examples/securestore
	go run ./examples/asyncpipeline
	go run ./examples/multistore
	go run ./examples/cloudcache

clean:
	rm -rf results/*.tmp

# Observability acceptance: workload through the resilient stack, then
# assert the /metrics scrape carries per-op histograms + resilience counters.
metrics:
	go test -race -run TestMetricsEndpointAcceptance -v .
