# Convenience targets for the videodb reproduction.

GO ?= go

# Coverage floor (percent) enforced over the orchestration and serving
# layers — the packages the ingest pipeline and HTTP API live in.
COVERPKGS   = ./internal/core/...,./internal/server/...,./internal/wal/...,./internal/fsx/...,./internal/segment/...,./internal/segstore/...,./internal/admission/...,./internal/chaos/...,./internal/cluster/...,./internal/obs/...
COVER_FLOOR = 60

# Scratch output of the gate, the smokes and PGO (git-ignored).
BENCH_DIR = bench-out
# The commit bench-gate compares this tree against.
BASE ?= main

.PHONY: all build test test-race vet doccheck check cover cover-gate bench-gate bench-micro cluster-smoke chaos-smoke reshard-smoke fuzz fuzz-smoke segment-torture stress paper corpus pgo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/admission/ ./internal/chaos/ ./internal/cluster/ ./internal/core/ ./internal/feature/ ./internal/obs/ ./internal/segment/ ./internal/segstore/ ./internal/server/ ./internal/varindex/ ./internal/wal/

# Repeated race-detector runs over the lock-free query path's
# concurrency and equivalence suites — the flake-hunting profile CI
# runs on every push (see docs/QUERYPATH.md) — then the node edge's
# timeout, inflight-cap, hangup and panic suites, then the
# coordinator's probe and staleness suites, then the reshard suites
# twenty times with and without the race detector, then the journal's
# recovery, replay and rotation suites: their bugs are
# schedule-dependent, and one green run proves nothing.
stress:
	$(GO) test -race -run 'Concurrent|Cache|Equivalence' -count=5 ./internal/core/ ./internal/varindex/
	$(GO) test -race -run 'Timeout|TimedOut|Inflight|Hangup|Panic' -count=20 ./internal/server/
	$(GO) test -race -run 'Probe|Generation|ReplicaLag|Staleness|ReplicaReads' -count=20 ./internal/cluster/
	$(GO) test -run 'Reshard' -count=20 -timeout 30m ./internal/cluster/
	$(GO) test -race -run 'Reshard' -count=20 -timeout 60m ./internal/cluster/
	$(GO) test -race -run 'Journal|Recover|Replay|Rotate' -count=20 ./internal/wal/

# Every package must carry a package comment (// Package x ... for
# libraries, // Command x ... for binaries) — the revive-style
# package-comments check, without taking on the dependency.
doccheck:
	@fail=0; for d in internal/* cmd/*; do \
		grep -l -e '^// Package ' -e '^// Command ' $$d/*.go >/dev/null || \
			{ echo "doccheck: $$d has no package comment"; fail=1; }; \
	done; exit $$fail

# The tier-1 verification gate: the build first (vet assumes a
# compiling tree and its errors are noisier than the compiler's), then
# static checks, then the full test suite under the race detector with
# a coverage profile for cover-gate. internal/experiments — the paper
# reproduction harness, by far the slowest suite — runs uninstrumented:
# atomic coverage counters on the core statements it hammers roughly
# double its runtime while adding nothing the integration and unit
# suites don't already cover. bench/ — the benchmark of record — is a
# module of its own that ./... never reaches; vetting and testing it
# here (as CI's check job does) is what makes deleting an exported name
# it calls fail on the author's machine instead of in the pipeline.
check: build doccheck vet
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	$(GO) test -race -timeout 30m -covermode=atomic -coverprofile=coverage.out -coverpkg=$(COVERPKGS) $$($(GO) list ./... | grep -v videodb/internal/experiments)
	$(GO) test -race -timeout 30m ./internal/experiments/

cover:
	$(GO) test -cover ./internal/...

# Enforce the coverage floor over $(COVERPKGS) using the profile that
# `make check` wrote.
cover-gate:
	@test -f coverage.out || { echo "cover-gate: no coverage.out; run 'make check' first"; exit 1; }
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "cover-gate: core+server coverage $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f) ? 1 : 0 }' || \
		{ echo "cover-gate: coverage below $(COVER_FLOOR)% floor"; exit 1; }

# The CI perf-regression gate: bench/ (the benchmark of record) on
# $(BASE) and on this tree, every BENCHMARK.json workload three times
# each, trees alternating; a run that is not correct, or a median worse
# than its BENCHMARK.json bound, fails. Tables and result lines land in
# $(BENCH_DIR)/gate/ (see docs/BENCHMARKING.md).
bench-gate:
	./scripts/bench_gate.sh $(BASE)

# Profile-guided optimization: ingest a synthetic corpus, drive a
# -pprof vdbserver with vdbbench's query mix while capturing a CPU
# profile, install it as cmd/vdbserver/default.pgo (which the Go
# toolchain picks up automatically), and rebuild with it. Rerun after
# hot-path changes; commit the refreshed profile.
PGO_DIR  = $(BENCH_DIR)/pgo
PGO_ADDR = 127.0.0.1:18080
pgo:
	rm -rf $(PGO_DIR) && mkdir -p $(PGO_DIR)
	$(GO) run ./cmd/synthgen -out $(PGO_DIR)/corpus -set examples
	$(GO) build -o $(PGO_DIR)/vdbserver ./cmd/vdbserver
	$(PGO_DIR)/vdbserver -data $(PGO_DIR)/data -addr $(PGO_ADDR) -pprof & \
		srv=$$!; trap 'kill $$srv 2>/dev/null' EXIT; \
		until curl -sf http://$(PGO_ADDR)/api/metrics >/dev/null; do sleep 0.2; done; \
		for f in $(PGO_DIR)/corpus/*.vdbf; do \
			curl -sf -X POST --data-binary @$$f http://$(PGO_ADDR)/api/clips >/dev/null || exit 1; \
		done; \
		curl -sf -o $(PGO_DIR)/cpu.pprof "http://$(PGO_ADDR)/debug/pprof/profile?seconds=12" & \
		prof=$$!; \
		$(GO) run ./cmd/vdbbench -target http://$(PGO_ADDR) -concurrency 8 -duration 11s; \
		wait $$prof; \
		kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; true
	cp $(PGO_DIR)/cpu.pprof cmd/vdbserver/default.pgo
	$(GO) build -o $(PGO_DIR)/vdbserver-pgo ./cmd/vdbserver
	@echo "pgo: wrote cmd/vdbserver/default.pgo"

# End-to-end cluster exercise on loopback: three shard primaries on
# segment stores, one read replica, a coordinator in front; ingest through the
# coordinator, load it with vdbbench -cluster while killing a shard
# mid-run, then assert zero 5xx, partial accounting and replica
# catch-up from vdbbench's result line (see docs/CLUSTER.md for the
# topology).
cluster-smoke:
	./scripts/cluster_smoke.sh

# Overload-protection exercise on loopback: a 3-shard cluster with one
# chaos-degraded (but replicated) shard and per-client rate limits,
# driven by vdbbench -chaos — paced keyed healthy workers plus an
# abusive client. Asserts zero 5xx on healthy traffic, the abuser shed
# (never failed), hedge wins, and retry volume capped by the budget
# (see docs/ROBUSTNESS.md).
chaos-smoke:
	./scripts/chaos_smoke.sh

# Online-resharding exercise on loopback: a 3-shard cluster (with a
# bounded-staleness read replica) grows to 4 shards while vdbbench
# drives it, via the bench's own -reshard trigger. Asserts zero 5xx
# and zero partials across the migration, the new shard owning clips
# and taking fan-out, replica reads within the bound, and the final
# corpus byte-identical to a never-resharded control node (see
# "Growing the cluster" in docs/CLUSTER.md).
reshard-smoke:
	./scripts/reshard_smoke.sh

# One testing.B benchmark per paper table/figure plus ablations.
bench-micro:
	$(GO) test -bench=. -benchmem

# Short fuzz passes over the binary parsers and recovery paths.
fuzz:
	$(GO) test -fuzz FuzzReadClip -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzReadY4M -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/impression/
	$(GO) test -fuzz '^FuzzImportClipRecord$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzApplySnapshot$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzJournalReplay -fuzztime 30s ./internal/wal/
	$(GO) test -fuzz FuzzSearchEquivalence -fuzztime 30s ./internal/varindex/
	$(GO) test -fuzz FuzzReplaceEquivalence -fuzztime 30s ./internal/varindex/
	$(GO) test -fuzz FuzzMergeEquivalence -fuzztime 30s ./internal/cluster/
	$(GO) test -fuzz '^FuzzScanMatches$$' -fuzztime 30s ./internal/server/
	$(GO) test -fuzz '^FuzzAnalyzeEquivalence$$' -fuzztime 30s ./internal/feature/

# The segment-store durability gate CI runs as its own job: flip every
# byte of a valid segment, truncate it at every length, append garbage,
# mutate the manifest — each variant must fail loudly at Open, never
# serve wrong data — then longer adversarial fuzz passes over the two
# storage parsers, and the flush/reopen/compaction differential suite
# (including reads racing a compaction cascade) under the race
# detector.
segment-torture:
	$(GO) test -race -run 'Torture' ./internal/segment/
	$(GO) test -fuzz '^FuzzSegmentOpen$$' -fuzztime 30s -run '^$$' ./internal/segment/
	$(GO) test -fuzz '^FuzzManifestLoad$$' -fuzztime 30s -run '^$$' ./internal/segment/
	$(GO) test -race -run 'TestDifferentialFlushReopenCompact|TestMidCompactionReads' ./internal/segstore/

# Run every Fuzz* target in the tree for 10 seconds each — the CI
# smoke pass. Discovers targets dynamically so new fuzzers are picked
# up without editing this file.
fuzz-smoke:
	@fail=0; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -fuzz "^$$target$$" -fuzztime 10s -run '^$$' $$pkg || fail=1; \
		done; \
	done; exit $$fail

# Regenerate every paper artifact at a moderate scale (see
# EXPERIMENTS.md for the full-scale invocations).
paper:
	$(GO) run ./cmd/paper -all -scale 0.25

# Render the example clips to ./corpus as VDBF files with ground truth.
corpus:
	$(GO) run ./cmd/synthgen -out corpus -set examples -truth

clean:
	rm -rf corpus data $(BENCH_DIR) coverage.out
