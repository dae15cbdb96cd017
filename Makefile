# Developer entry points. `make check` is the tier-1 gate (gofmt + build +
# vet + tests; the tests include cmd/aabench's TestTablesPinned, which pins
# every E-table at seeds 1); `make race` exercises the parallel experiment
# engine and the goroutine runtime under the race detector;
# `make benchmark-check` compiles and smoke-runs the repository benchmark
# (benchmark/, a module of its own that `make check` does not see), and
# `make pairs` runs it in alternating pairs against a parent commit.

GO ?= go

.PHONY: pairs check vet race fuzz-relnet fuzz-parse fuzz-incident fuzz-wire fuzz-rng fuzz-checkpoint fuzz-protocols benchmark-check benchmem e12-smoke e12-xl incident-replay incident-regen livenet-soak recovery-soak serve-soak

# check fails first on any file gofmt would rewrite, listing them.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# race's -run alternatives must each match a test: one that matches nothing
# passes silently. TestMakeRaceRunPatterns (makefile_test.go) checks this.
# TestProductionMatchesReference runs a reference and a production engine
# concurrently, sharing the run-context pool. TestRecipeLiveTokens runs
# every registry token LowerLive accepts, Byzantine processes and every
# scheduler among them, on livenet goroutines that share the run's
# scheduler. TestRunLivePooledShapes runs Recipe.RunLive back to back on
# changing shapes, on pooled run contexts and livenet networks.
# internal/serve's wall-clock loop runs each instance attempt in a
# goroutine of its own. TestFIFOConcurrentSenders calls the one stateful
# scheduler, fifo, from a goroutine per sender, as livenet does.
race:
	$(GO) test -race -run 'TestEngine|TestMapOrdered|TestRunAll|TestSetParallelism|TestSmoke|TestCoreEquivalenceTraces|TestProductionMatchesReference|TestRecipeLiveTokens|TestRunLivePooledShapes' ./internal/harness/
	$(GO) test -race ./internal/livenet/
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'TestFIFOConcurrentSenders' ./internal/sched/

# fuzz-relnet runs the native fuzz target for relnet's frame parser and
# link windows (FuzzDeliver: arbitrary frames from arbitrary senders,
# interleaved with sends, multicasts and retransmit timers). A failing
# input is saved under internal/relnet/testdata/fuzz/FuzzDeliver/, where
# plain `go test` replays it from then on; commit it with the fix.
#
# FUZZTIME is each native target's budget. FUZZMINTIME caps how long the
# fuzzer minimizes one new interesting input (go test's default is 60 s,
# and a minimizing worker runs nothing else), so that a short run spends
# its budget executing inputs. Every native fuzz-* target takes it.
FUZZTIME ?= 30s
FUZZMINTIME ?= 1s
fuzz-relnet:
	$(GO) test -run '^$$' -fuzz '^FuzzDeliver$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/relnet/

# fuzz-parse runs the native fuzz targets for the two spec parsers
# (scenario.Parse and workload.Parse, both FuzzParse), FUZZTIME each: no
# panic, and every spec that parses renders to a String() that parses back
# to the same rendering; a scenario spec that parses must also pass
# Validate, and Resolve when its t is explicit. Findings land under each
# package's testdata/fuzz/FuzzParse/; commit them with the fix.
fuzz-parse:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/workload/

# fuzz-incident runs the native fuzz target for the incident bundle decoder
# (FuzzDecode, seeded with the committed corpus): no panic, every error
# wraps a frame sentinel, and every bundle that decodes round-trips through
# Encode. Findings land under internal/incident/testdata/fuzz/FuzzDecode/;
# commit them with the fix.
fuzz-incident:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/incident/

# fuzz-wire runs the native fuzz target for the protocol message decoders
# (FuzzUnmarshal, seeded with wire's table tests): Peek and every Unmarshal*
# never panic, every error is a wire decode error, and every message that
# decodes re-encodes to the bytes it came from. Findings land under
# internal/wire/testdata/fuzz/FuzzUnmarshal/; commit them with the fix.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/wire/

# fuzz-rng runs the native fuzz target for the seeded random source
# (FuzzSeed: an arbitrary seed and draw count): internal/rng's stream
# equals math/rand's for that seed, draw for draw. Findings land under
# internal/rng/testdata/fuzz/FuzzSeed/; commit them with the fix.
fuzz-rng:
	$(GO) test -run '^$$' -fuzz '^FuzzSeed$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/rng/

# fuzz-checkpoint runs the native fuzz target for snapshot restore
# (FuzzRestore, seeded with core's snapshot round-trip states, the CRC
# re-sealed over every fuzzed body): Restore never panics on AsyncAA or
# WitnessAA, every error wraps frame.ErrMalformed or
# frame.ErrVersion, and snapshot -> restore -> snapshot reaches a fixed
# point.
# Findings land under internal/core/testdata/fuzz/FuzzRestore/; commit
# them with the fix.
fuzz-checkpoint:
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINTIME) ./internal/core/

# fuzz-protocols runs the adversarial search of cmd/aafuzz at seed SEED
# (the variable `make pairs` also uses): 5000 protocol-fuzzer trials and
# 5000 scenario compositions, asserting liveness, validity and
# eps-agreement on every run. A violation exits non-zero and leaves its
# recipe as an incident bundle under fuzz-artifacts/, with the
# `aarun -replay` line that reproduces it. CI passes a fresh seed per run.
fuzz-protocols:
	$(GO) run ./cmd/aafuzz -trials 5000 -scenario-trials 5000 -seed $(SEED) -artifacts fuzz-artifacts

# benchmark-check keeps the frozen benchmark honest on every PR: its own
# tests (metric selection, seam transparency, golden statistics,
# BENCHMARK.json against the program), a one-second untraced pass of the
# four simulated workloads at the golden seed, whose statistics must match
# golden.json, then a two-second untraced pass of the two wall-clock
# workloads. Any incorrect outcome fails the target.
benchmark-check:
	cd benchmark && $(GO) test .
	bash benchmark/run.sh -workload sim-scale,sim-witness,sim-lossy,sweep-small -seed 1 -reps 1 -seconds 1 -notrace
	bash benchmark/run.sh -workload live,serve -reps 1 -seconds 2 -notrace

# pairs runs the repository benchmark on PARENT and on the working tree in
# PAIRS alternating pairs (odd pairs run the parent first, each pair has a
# seed of its own), SECONDS per run, on the comma-separated WORKLOADS.
# An unrecorded run of the same workload precedes each pair, so that both
# recorded runs follow a run like their own (scripts/pairs.sh says why). It
# appends one JSON line per run to OUT and prints, per workload and
# metric, the parent's quartiles, both medians, the median per-pair ratio
# (working tree / parent), the pairs the working tree won and a verdict
# (gain, worse or -); it exits 1 on a worse row or a failed op. The parent
# is exported with git archive and built under .bench_build/. Needs jq.
# Example:
#   make pairs PARENT=HEAD~1 WORKLOADS=sim-scale,sim-lossy OUT=BENCH_36_pairs.jsonl
PARENT ?=
WORKLOADS ?= sim-scale,sim-witness,sim-lossy,sweep-small,live,serve
PAIRS ?= 10
SECONDS ?= 10
SEED ?= 1
ROUND ?= main
OUT ?= BENCH_pairs.jsonl
pairs:
	PARENT='$(PARENT)' WORKLOADS='$(WORKLOADS)' PAIRS='$(PAIRS)' RUN_SECONDS='$(SECONDS)' \
		SEED='$(SEED)' ROUND='$(ROUND)' OUT='$(OUT)' bash scripts/pairs.sh

# e12-smoke exercises the n=512 scale axis (batched tick delivery + SoA
# party state) on every PR: a reduced scenario slice at n=512 on the crash
# protocol, ~3M messages per run, asserting full invariant success.
e12-smoke:
	E12_LARGE_SMOKE=1 $(GO) test -run TestE12LargeN512Smoke -v -timeout 20m ./internal/harness/

# e12-xl exercises the n=1024 scale axis: the reduced E12-XL slice
# (E12XLSizes([]int{1024})), ~10M messages per fault-free run, asserting
# full invariant success.
# The full n=4096 sweep is aabench -xl; BENCH_8.json keeps its E12XL
# entry as frozen history, and aabench -xl re-renders the sweep.
e12-xl:
	E12_XL_SMOKE=1 $(GO) test -run TestE12XL1024Smoke -v -timeout 30m ./internal/harness/

# incident-replay replays every committed incident bundle in
# testdata/incidents/ on three engines (production at 1 and 8 workers, and
# the reference) and diffs each run against the recorded digest.
# Any divergence reports the episode, the engine, and the first
# divergent send sequence. Runs in well under a second; wired into CI.
incident-replay:
	$(GO) test -run 'TestIncidentCorpusReplayMatrix|TestCorpusMutationDetected' -count=1 -v ./internal/incident/

# incident-regen re-captures the corpus from the episode definitions in
# internal/incident/corpus.go. Use when adding an episode or after an
# *intentional* schedule-affecting change — never to paper over an
# unexplained divergence.
incident-regen:
	INCIDENT_REGEN=1 $(GO) test -run TestIncidentCorpusReplayMatrix -count=1 -v ./internal/incident/

# livenet-soak runs the real-goroutine transport under the race detector
# with injected loss, duplication, jitter, and flapping parties, reliable
# transport on: the run must converge with no hung senders. Seeded and
# wall-clock-bounded (completes in a few seconds); gated behind
# LIVENET_SOAK=1 so default test runs stay fast.
livenet-soak:
	LIVENET_SOAK=1 $(GO) test -race -run TestLivenetSoak -count=1 -v ./internal/livenet/

# recovery-soak runs the crash-recovery supervisor under the race detector:
# two parties checkpointed, killed, and rejoined mid-run under 10% injected
# loss on the reliable transport. The run must reconverge to eps-agreement
# with both restarts attributed. Seeded and wall-clock-bounded; gated
# behind RECOVERY_SOAK=1 so default test runs stay fast.
recovery-soak:
	RECOVERY_SOAK=1 $(GO) test -race -run TestRecoverySoak -count=1 -v ./internal/livenet/

# serve-soak runs the serving layer against wall-clock agreement instances
# under the race detector: heavy-tailed arrivals at 2x saturation pushed
# through the admission envelope onto the live transport with 10% loss and
# one flapping party, reliable transport on. Every request must be
# accounted (decided/shed/deadline/breaker/degraded — no silent drops) and
# goodput must stay above the floor. Seeded and wall-clock-bounded; gated
# behind SERVE_SOAK=1 so default test runs stay fast.
serve-soak:
	SERVE_SOAK=1 $(GO) test -race -run TestServeSoak -count=1 -v -timeout 5m ./internal/serve/

# benchmem runs the substrate micro-benchmarks with allocation accounting,
# the numbers PERF.md tracks, then the warm snapshot -> restore round trip
# (BenchmarkSnapshotRestore, 0 allocs/op).
benchmem:
	$(GO) test -run '^$$' -bench 'BenchmarkApproxFuncs|BenchmarkContractionSearch|BenchmarkWire|BenchmarkSimLoop|BenchmarkScenarioE12|BenchmarkRunReused|BenchmarkLiveRun' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshotRestore' -benchmem ./internal/core/
