GO ?= go
BENCH_PKGS = ./internal/scanner/ ./internal/plan/ ./internal/pattern/ ./internal/mutator/ ./internal/interp/

.PHONY: build vet test race shuffle cover fuzz-smoke golden-update loc loc-check fmt-check bench bench-exec bench-pipeline bench-all bench-e2e ab bench-smoke metrics-smoke worker-chaos-smoke restart-chaos-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The tree is gofmt-clean: fails listing every file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Randomized test order + race detector: the order-independence gate CI
# runs as its second matrix leg.
shuffle:
	$(GO) test -shuffle=on -race -count=1 ./...

# Coverage profile + function summary (coverage.out is the CI artifact).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Short fuzz runs over the DSL compiler, the pattern matcher, the
# scanner's index (indexed scan vs MatchPrefix at every start), the
# oracle-equivalence interpreter target (compiled path vs the tree-walk
# reference; the seed corpora live under the packages' testdata/fuzz/
# directories), the fleet's record-stream decoder (arbitrary
# records/complete bodies against a live coordinator), the plan's
# encoder (Save against json.MarshalIndent), the scan's snippet memo
# (memoized points against fresh renders) and the result store's reopen
# (fuzzed segment, meta and journal bytes; no .bad file ever replaced).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/dsl/
	$(GO) test -run '^$$' -fuzz FuzzMatchPrefix -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz FuzzScanAgreesWithMatchPrefix -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz FuzzEngineEquivalence -fuzztime $(FUZZTIME) ./internal/interp/
	$(GO) test -run '^$$' -fuzz FuzzForkEquivalence -fuzztime $(FUZZTIME) ./internal/interp/
	$(GO) test -run '^$$' -fuzz FuzzRecordsBody -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzSaveMatchesMarshalIndent -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz FuzzScanSnippets -fuzztime $(FUZZTIME) ./internal/scanner/
	$(GO) test -run '^$$' -fuzz FuzzStoreReopen -fuzztime $(FUZZTIME) ./internal/resultstore/

# Regenerate the golden campaign-record fixtures (testdata/golden/)
# after an intentional behavior change; review the diff before commit.
golden-update:
	$(GO) test -run TestGoldenCampaignRecords -count=1 -update .

# Non-test Go lines outside bench/, per package and in total — the size
# figure simplification PRs are judged on.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
	  | xargs -0 wc -l \
	  | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); pkg[d] += $$1; t += $$1 } \
	         END { for (d in pkg) printf "%7d %s\n", pkg[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# loc's total may not exceed the budget. It is the figure the last change
# measured: a fleet campaign's first record leaves its worker at once,
# the job view's phase times are exact and the campaign times its first
# record, which took 21 177 to 21 203 (+26). The deletion that pays it
# back is ROADMAP item 9(b): one in-process fleet worker for every
# service campaign, so executor.Remote's takeover drain goes. A change
# that needs more lines raises the constant in the same diff, where
# code review sees it; CI runs this instead of loc, so the size cannot
# silently grow back.
LOC_BUDGET := 21203

loc-check:
	@$(MAKE) -s loc | awk -v budget=$(LOC_BUDGET) '{ print } $$2 == "total" { t = $$1 } \
	  END { if (t == "" || t + 0 > budget) { printf "loc-check: FAIL: %s non-test lines, budget %d (LOC_BUDGET in Makefile)\n", t, budget; exit 1 } \
	        printf "loc-check: ok: %d of %d lines\n", t, budget }'

# Engine benchmarks: scan throughput (cold, warm, and warm by pattern
# shape — BenchmarkScanShapes), plan encoding (BenchmarkPlanSave, MB/s),
# match-engine hot paths, cached mutation,
# interpreter round execution (tree-walk vs compiled). Writes
# bench.txt so CI can upload it as an artifact and the perf trajectory
# stays comparable across PRs. No pipe to tee: the recipe must fail when
# go test fails. Also emits the machine-readable execute-phase results
# (BENCH_exec.json) via bench-exec.
bench: bench-exec
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) > bench.txt 2>&1; \
	  status=$$?; cat bench.txt; exit $$status

# End-to-end execute-phase benchmark: campaign throughput and two-round
# experiment latency on the production (closure) path, campaign-late's
# experiments forked vs run in full, and mutant → program derivation on
# the text and declaration front ends (mutant-derive/*), as
# machine-readable JSON.
bench-exec:
	PROFIPY_BENCH_JSON=$(CURDIR)/BENCH_exec.json $(GO) test -run TestEmitExecBenchJSON -count=1 .

# Streaming-pipeline benchmark: campaign record throughput through the
# Local executor (bare and instrumented) and into the result store, plus
# the online aggregator's per-record cost, as machine-readable JSON
# (BENCH_pipeline.json, a CI artifact).
bench-pipeline:
	PROFIPY_BENCH_PIPELINE_JSON=$(CURDIR)/BENCH_pipeline.json $(GO) test -run TestEmitPipelineBenchJSON -count=1 .

# The repository benchmark (BENCHMARK.json, bench/README.md): drives
# the §V campaigns end to end through an in-process profipyd and prints
# the gated end-to-end metrics; T=1 adds the staged per-layer ledger
# (alloc_kb_per_unit, gc_cpu_share, env_install_us, run_us, ...).
# W is one of mix.local, mix.remote2, late.fork, scan.large.
W ?= mix.local
T ?= 0
bench-e2e:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 20 --trace $(T)

# A/B against a commit: N interleaved pairs of bench-e2e runs (20 s,
# seeds 1..N), REF built in a temporary git worktree, the side that
# runs first alternating; prints per end-to-end metric each side's
# median and q1–q3, head/base and wins-of-N, then fail_share. Needs jq.
# Example: make ab REF=HEAD~1 W=late.fork N=10
REF ?= HEAD
N ?= 10
ab:
	bash scripts/ab.sh $(REF) $(W) $(N)

# bench/ is its own module (go test ./... at the root does not see it):
# its tests compile the benchmark against the library surface it pins
# and run every workload briefly, so a change that breaks what the
# benchmark imports fails here instead of in the perf gate.
bench-smoke:
	$(GO) test -C bench ./...

# Observability gate: boots profipyd, runs a demo campaign, and fails
# if /metrics is missing an expected family, the exposition format does
# not parse, or the pprof debug listener is unreachable.
metrics-smoke:
	./scripts/metrics-smoke.sh

# Fault-tolerance gate: boots profipyd plus two profipy-worker
# processes, SIGKILLs one mid-campaign, and fails unless the surviving
# worker finishes the campaign with records byte-identical to an
# in-process baseline run.
worker-chaos-smoke:
	./scripts/worker-chaos-smoke.sh

# Crash-consistency gate: boots profipyd, SIGKILLs it mid-campaign with
# a second job still queued, restarts it on the same data dir, and
# fails unless the resumed campaign's records and report come out
# byte-identical to an uninterrupted run and the queued job completes.
restart-chaos-smoke:
	./scripts/restart-chaos-smoke.sh

# Everything, including the paper-evaluation campaign benchmarks at the
# repository root (slow).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... > bench-all.txt 2>&1; \
	  status=$$?; cat bench-all.txt; exit $$status
