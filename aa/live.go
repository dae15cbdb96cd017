package aa

import (
	"context"
	"time"

	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/sim"
)

// LiveOptions tunes RunLive.
type LiveOptions struct {
	// MaxJitter bounds the injected delivery delay: each message is held
	// for a uniform draw from [0, MaxJitter). Zero selects the 2ms
	// default; a negative value injects no delay at all.
	MaxJitter time.Duration
	// Seed drives the jitter randomness.
	Seed int64
	// Loss and Dup inject per-send Bernoulli message drop and duplication
	// (probabilities in [0, 1)), drawn from per-party seeded sources.
	Loss, Dup float64
	// FlapParties takes the first FlapParties parties dark for one window
	// apiece — sends to and from a dark party are dropped — after which
	// they resume with their state intact. FlapAfter/FlapStagger/FlapLen
	// shape the windows (defaults 50ms/50ms/100ms).
	FlapParties int
	FlapAfter   time.Duration
	FlapStagger time.Duration
	FlapLen     time.Duration
	// Reliable wraps every party in the ack/retransmit transport
	// (internal/relnet), which heals Loss and FlapParties drops by
	// retransmission; the raw transport degrades instead.
	Reliable bool
}

// RunLive executes the protocol on a real goroutine-per-party runtime with
// per-party mailboxes and jittered delivery, and returns the checked
// outcome. The context bounds the run; a generous timeout should be used
// since the runtime is only as fast as its timers.
//
// On timeout the returned error wraps the runtime's deadline failure but
// the Outcome still carries the partial progress — who decided, what was
// dropped, duplicated, and retransmitted — so a degraded run is
// observable, not just dead.
func RunLive(ctx context.Context, c Config, inputs []float64, opts LiveOptions) (*Outcome, error) {
	procs := make([]sim.Process, len(inputs))
	for i, v := range inputs {
		p, err := NewProcess(c, v)
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	res, err := livenet.Run(ctx, procs, livenet.Options{
		MaxJitter:   opts.MaxJitter,
		Seed:        opts.Seed,
		Loss:        opts.Loss,
		Dup:         opts.Dup,
		FlapParties: opts.FlapParties,
		FlapAfter:   opts.FlapAfter,
		FlapStagger: opts.FlapStagger,
		FlapLen:     opts.FlapLen,
		Reliable:    opts.Reliable,
	})
	if res == nil {
		return nil, err
	}
	out := outcome(harness.JudgeLive(inputs, res.Decisions, c.Epsilon), res.Decisions)
	out.Messages, out.Dropped, out.Duped = int(res.Messages), int(res.Dropped), int(res.Duped)
	out.Retransmits = int(res.Transport.Retransmits)
	out.Err = err
	return out, err
}
