// Package repro is a from-scratch Go reproduction of the foundational
// asynchronous approximate agreement system ("Asynchronous Approximate
// Agreement", PODC 1987): n message-passing parties, up to t faulty, with
// real-valued inputs, reaching ε-agreement inside the convex hull of the
// non-faulty inputs over a fully asynchronous network.
//
// The public API lives in repro/aa; the protocol family, the asynchronous
// network simulator, the adversary suite, and the experiment harness live
// under internal/. See README.md for a tour, DESIGN.md for the system
// inventory and proofs, and EXPERIMENTS.md for the measured reproduction of
// every evaluation table and figure.
//
// # Performance architecture
//
// Experiments execute on a parallel engine (internal/harness): each E*
// driver enumerates its independent (Spec, seed) simulation runs up front
// and submits them to a worker pool that fans them across GOMAXPROCS
// goroutines, aggregating results in deterministic index order — the
// rendered tables are byte-identical to a sequential execution at any
// worker count (cmd/aabench -parallel 1 forces the sequential path).
//
// The simulator's event queue is a bucketed calendar queue (internal/sim):
// a timing wheel of one-tick FIFO buckets over the near future, an
// overflow heap for far-future events, and a flat event arena recycled
// through a free list, so enqueue and dequeue are amortized O(1) per
// event instead of the binary heap's O(log M) — the difference that makes
// the E12 large-n sweeps (n up to 512, ~2.6M messages per run at the top)
// practical. The Run loop drains one virtual-time tick per batch and
// delivers dense ticks batched by destination: each party consumes its
// whole tick through one DeliverBatch call (sim.BatchProcess, with a
// per-envelope shim for processes that don't opt in), hot per-party
// simulator state lives in flat struct-of-arrays on the Network, and
// sends emitted mid-tick are deferred and flushed in trigger order so the
// batched loop's Seq and scheduler-rng streams are exactly the
// per-envelope loop's. That is the production configuration. The one
// other configuration is the reference: the binary heap, per-envelope
// delivery of every tick, and a fresh run context per run
// (sim.Config.Reference, harness.Engine{Reference: true}). Equivalence
// tests pin event-for-event identical delivery traces and byte-identical
// experiment tables between the two.
//
// The engine is a value, not process state: every experiment driver takes
// a *harness.Engine, whose Workers field sets the worker count and whose
// Stats method counts that engine's runs alone, so a production and a
// reference engine can run side by side in one process.
//
// Each simulation run is single-threaded; engine parallelism is across
// runs, never within one.
//
// Adversary wiring is declarative: internal/scenario turns a scheduler, a
// fault composition, and a run shape into one registry-validated
// Spec ("skew+equivocate/n=64,t=9") that every experiment driver
// enumerates, aarun -scenario executes, and cmd/aafuzz round-trips —
// invalid combinations fail at spec time, never mid-run.
//
// The per-round protocol hot paths are allocation-free: reception views are
// assembled into per-party scratch buffers, sorted in place, and applied
// through the multiset package's trusted-sorted fast paths
// (multiset.ApplyInPlace), which skip both the defensive copy and the O(n)
// sortedness re-scan of the validating multiset.Func.Apply contract. The
// wire package offers append-style encoders (wire.AppendValue et al.) for
// buffer-reusing encode.
//
// Whole runs recycle too: every engine run executes on a pooled
// harness.RunContext whose simulator (sim.Network.Reset), protocol
// parties (core.*.Reset), and reliable-broadcast slabs
// (rbc.Broadcaster.Reset) are reset in place — provably equivalent to
// fresh construction, pinned by byte-identical experiment tables against
// the reference engine's fresh contexts — so a warm worker executes an entire
// scheduler×seed×n sweep with zero steady-state heap allocations on the
// reused-report path (testing.AllocsPerRun pins exactly 0 for the crash,
// trim, and witness protocols).
//
// # Crash recovery
//
// Every protocol party is a core.Snapshotter: Snapshot serializes its
// complete round state into a versioned internal/frame envelope (magic,
// version, body, CRC — about 110 bytes for a mid-round crash party at
// n=9; incident bundles use the same envelope and field reader), Restore rolls the party back to exactly those bytes
// with typed rejection of corrupt, truncated, or cross-shape snapshots,
// and Rejoin re-announces the current round so peers catch the party
// up. The scenario axes "recover:k:down:lag" and "amnesia:k:down" drive
// the episode deterministically in the simulator — crash the last k
// fault slots, discard state newer than a lag-stale (or zero)
// checkpoint, rejoin after a darkness window — and internal/livenet
// runs the same episode on real goroutines under a restart supervisor
// (checkpoint and kill delivered on the party's own goroutine, down
// window, stale-inbox drain, Restore + Rejoin), soaked in CI under
// -race (`make recovery-soak`). The E14 sweep quantifies the recovery
// trade: fresh checkpoints reconverge on any repaired transport, stale
// and amnesiac restarts need the adaptive DECIDED re-announce over the
// reliable transport, and raw transport stalls when traffic lands in
// the darkness window. Snapshot/Restore round trips are
// allocation-free, so supervised warm runs keep the zero-alloc steady
// state.
//
// # Agreement as a service
//
// The internal/serve package multiplexes concurrent agreement requests
// over the pooled harness run contexts behind a robustness envelope:
// per-cohort circuit breakers, a token-bucket admission gate, and a
// bounded priority queue that evicts strictly-lower-priority work
// before shedding arrivals (guard order breaker, bucket, queue).
// Admitted requests carry a deadline into every attempt — in live mode
// it bounds the livenet run's context — and failed
// attempts retry with exponential backoff, never past the deadline.
// Each request resolves to exactly one structured outcome (decided,
// shed, deadline-exceeded, breaker-open, degraded-partial) and both
// engines enforce the accounting identity Offered = Decided + Shed +
// DeadlineExceeded + BreakerOpen + Degraded, so overload can never
// leak an unaccounted request. Load comes from internal/workload:
// seeded request generators parsed from token specs covering arrival
// processes (poisson, burst), heavy-tailed service times (lognormal,
// pareto), deadline/priority cohorts, and disturbance windows, all
// deterministic per seed. Failing requests are auto-captured as
// internal/incident bundles with a printed replay one-liner. The E15
// sweep (cmd/aaserve, cmd/aabench) drives offered load from 0.5x to 4x
// saturation across clean/lossy/flaky fault mixes; the acceptance bar
// is graceful degradation — 4x goodput within 20% of the 1x plateau
// with every rejection attributed — and `make serve-soak` runs the
// wall-clock arm under -race in CI.
//
// # Record/replay workflow
//
// Every claim above about equivalence is also enforced by data: the
// internal/incident package defines a compact, versioned trace-bundle
// format capturing one run bit-for-bit — canonical scenario string, seed,
// protocol configuration, the per-send network fate (delay, drop,
// duplication), a per-send content checksum, and a digest of the observable
// outcome
// (decisions, timing, message accounting, delivery-sequence hash). `aarun
// -record out.bundle` captures a run, `aarun -replay in.bundle`
// re-executes it and hard-fails on any divergence with the first divergent
// send sequence, and `aafuzz -artifacts DIR` automatically emits a bundle
// (plus its one-line replay command) for every violation it finds.
// Bundles encode at the lowest version that carries their data: v2 adds
// the drop/dup fate log for lossy runs, v3 adds per-party checkpoint
// digests for recovery runs, and fate-free bundles stay byte-identical
// to v1. The
// committed corpus under testdata/incidents/ replays in CI on production
// at 1 and 8 workers and on the reference (`make
// incident-replay`), so a schedule-equivalence regression anywhere in the
// stack surfaces with the episode name and the exact send where the
// execution first forked.
//
// PERF.md records the measured before/after numbers; the
// BENCH_<n>_pairs.jsonl files at the repo root (written by `make pairs`)
// carry the performance trajectory across PRs.
package repro
