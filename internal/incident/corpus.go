package incident

import (
	"repro/internal/core"
	"repro/internal/harness"
)

// Episodes returns the committed incident corpus as un-captured bundles,
// a name and a recipe each: six named adversarial episodes chosen to pin the
// simulator paths that past perf refactors (calendar queue, context
// recycling, batched tick delivery) had to re-prove equivalent ad hoc.
// `INCIDENT_REGEN=1 go test ./internal/incident/` re-captures them into
// testdata/incidents/; the replay-matrix test re-runs the committed
// bundles on every event core × delivery mode × engine parallelism.
//
// Episode recipes are append-only in spirit: changing one rewrites a
// committed trace, which is exactly the kind of silent history edit the
// corpus exists to prevent (TestCorpusMatchesEpisodes fails on an edit
// that was not re-captured). Add new episodes instead.
func Episodes() []*Bundle {
	return []*Bundle{
		{
			// Two extreme-value Byzantine parties under split views try to
			// drag the trimmed hull past the honest range: outputs hug the
			// hull edge without crossing it. Any regression in trim-order
			// or quorum assembly shows up as a decision shift here first.
			Name: "near-miss-validity",
			Recipe: harness.Recipe{
				Scenario: "splitviews+extreme/n=15,t=2",
				Protocol: core.ProtoByzTrim.Token(),
				Eps:      1e-2,
				Lo:       0,
				Hi:       1,
				Seed:     101,
				Inputs:   harness.OutlierInputs(15, 0, 1),
			},
		},
		{
			// Adaptive termination with spam flooding under a skewed
			// schedule: the horizon is estimated from an initial exchange
			// while a spammer inflates traffic, stressing the adaptive
			// round-horizon piggybacking.
			Name: "adaptive-horizon-spam",
			Recipe: harness.Recipe{
				Scenario: "skew+spam/n=15,t=2",
				Protocol: core.ProtoByzTrim.Token(),
				Adaptive: true,
				Eps:      1e-2,
				Lo:       0,
				Hi:       1,
				Seed:     202,
				Inputs:   harness.UniformInputs(15, 0, 1, 2025),
			},
		},
		{
			// A deliberately tiny event budget aborts a dense n=32 run in
			// the middle of a batched tick: the abort must happen after the
			// same delivery in every mode (budget-tripping ticks run the
			// reference loop).
			Name: "budget-abort-mid-tick",
			Recipe: harness.Recipe{
				Scenario:  "random/n=32,t=5",
				Protocol:  core.ProtoCrash.Token(),
				Eps:       1e-3,
				Lo:        0,
				Hi:        1,
				Seed:      303,
				MaxEvents: 2000,
				Inputs:    harness.LinearInputs(32, 0, 1),
			},
		},
		{
			// Lock-step delivery at n=24 makes every tick dense, so the
			// last decision lands mid-tick: the batched core's mid-tick
			// completion repair must cut off at exactly the recorded
			// delivery.
			Name: "mid-tick-completion",
			Recipe: harness.Recipe{
				Scenario: "sync/n=24,t=3",
				Protocol: core.ProtoCrash.Token(),
				Eps:      1e-2,
				Lo:       0,
				Hi:       1,
				Seed:     404,
				Inputs:   harness.LinearInputs(24, 0, 1),
			},
		},
		{
			// Maximum fault bound (n=2t+2) with bimodal inputs under split
			// views: the slowest provable contraction, the most rounds per
			// unit of progress, and the heaviest quorum-boundary traffic.
			Name: "worst-case-contraction",
			Recipe: harness.Recipe{
				Scenario: "splitviews/n=16,t=7",
				Protocol: core.ProtoCrash.Token(),
				Eps:      1e-2,
				Lo:       0,
				Hi:       1,
				Seed:     505,
				Inputs:   harness.BimodalInputs(16, 0, 1),
			},
		},
		{
			// Composite fault mix at the largest corpus size: crashes and
			// equivocators alternating across five fault slots under a
			// partitioned schedule, trim protocol at its resilience floor.
			Name: "crash-equivocate-large-n",
			Recipe: harness.Recipe{
				Scenario: "partition+crash+equivocate/n=36,t=5",
				Protocol: core.ProtoByzTrim.Token(),
				Eps:      1e-1,
				Lo:       0,
				Hi:       1,
				Seed:     606,
				Inputs:   harness.LinearInputs(36, 0, 1),
			},
		},
		{
			// Heavy Bernoulli loss plus duplication with the reliable
			// transport: every drop and dup decision is part of the recorded
			// fate log (bundle format v2), and the ack/retransmit sublayer's
			// recovery traffic is part of the digest. Any change to the fate
			// draw order, the relnet framing, or the retransmit schedule
			// shifts the delivery hash here first.
			Name: "loss-heavy-convergence",
			Recipe: harness.Recipe{
				Scenario:  "random+loss:0.1+dup:0.05/n=16,t=3",
				Protocol:  core.ProtoCrash.Token(),
				Eps:       1e-2,
				Lo:        0,
				Hi:        1,
				Seed:      707,
				MaxEvents: 20_000_000,
				Reliable:  true,
				Inputs:    harness.BimodalInputs(16, 0, 1),
			},
		},
		{
			// A correlated regional blackout overlapping staggered flap
			// windows on the raw transport: the run loses messages to two
			// distinct virtual-time windows and stalls with partial
			// decisions. The recorded digest pins the stall verdict and the
			// exact drop set, so replay proves degradation is deterministic,
			// not incidental.
			Name: "regional-outage-flap",
			Recipe: harness.Recipe{
				Scenario:  "random+flap:60+outage:4:50:100/n=16,t=3",
				Protocol:  core.ProtoCrash.Token(),
				Eps:       1e-2,
				Lo:        0,
				Hi:        1,
				Seed:      808,
				MaxEvents: 20_000_000,
				Inputs:    harness.LinearInputs(16, 0, 1),
			},
		},
		{
			// Two parties checkpoint at tick 20, crash at tick 50 losing 30
			// ticks of progress, and rejoin through the adaptive DECIDED
			// re-announce over the reliable transport (bundle format v3: the
			// snapshot content digests are part of the recorded trace). Any
			// change to the snapshot codec, the restore path, or the rejoin
			// re-send order shifts the checkpoint digests or the delivery
			// hash here first.
			Name: "rollback-rejoin-reconverge",
			Recipe: harness.Recipe{
				Scenario:  "random+recover:2:50:30/n=9,t=2",
				Protocol:  core.ProtoCrash.Token(),
				Adaptive:  true,
				Eps:       1e-3,
				Lo:        0,
				Hi:        1,
				Seed:      7,
				MaxEvents: 20_000_000,
				Reliable:  true,
				Inputs:    harness.BimodalInputs(9, 0, 1),
			},
		},
		{
			// Two amnesiac parties restart from their tick-0 checkpoint under
			// Bernoulli loss: every pre-crash delivery to them is forgotten
			// and the whole exchange is redone through ack/retransmit
			// catch-up. Pins the zero-state restore path and the interaction
			// between restart darkness windows and the retransmit schedule.
			Name: "amnesia-restart-catchup",
			Recipe: harness.Recipe{
				Scenario:  "random+amnesia:2:1+loss:0.05/n=12,t=3",
				Protocol:  core.ProtoCrash.Token(),
				Eps:       1e-2,
				Lo:        0,
				Hi:        1,
				Seed:      909,
				MaxEvents: 20_000_000,
				Reliable:  true,
				Inputs:    harness.BimodalInputs(12, 0, 1),
			},
		},
	}
}
