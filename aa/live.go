package aa

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/livenet"
)

// LiveOptions tunes RunLive.
type LiveOptions struct {
	// MaxJitter bounds the injected delivery delay: each message is held
	// for a uniform draw from [0, MaxJitter). Zero selects the 2ms
	// default; a negative value injects no delay at all.
	MaxJitter time.Duration
	// Seed drives the jitter randomness.
	Seed int64
	// Loss and Dup are the run's "loss:P" and "dup:P" axes: per-send drop
	// and duplication probabilities in (0, 1), or 0 for none.
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
// The run is the recipe of the "random" scenario at (N, T), with opts'
// loss and dup axes, seed and transport; the wall-clock fields go on top.
//
// On timeout the returned error wraps the runtime's deadline failure but
// the Outcome still carries the partial progress — who decided, what was
// dropped, duplicated, and retransmitted — so a degraded run is
// observable, not just dead.
func RunLive(ctx context.Context, c Config, inputs []float64, opts LiveOptions) (*Outcome, error) {
	r, err := c.recipe(inputs)
	if err != nil {
		return nil, err
	}
	scen := SchedRandom
	if opts.Loss > 0 {
		scen += "+loss:" + strconv.FormatFloat(opts.Loss, 'g', -1, 64)
	}
	if opts.Dup > 0 {
		scen += "+dup:" + strconv.FormatFloat(opts.Dup, 'g', -1, 64)
	}
	r.Scenario, r.Seed, r.Reliable = fmt.Sprintf("%s/n=%d,t=%d", scen, c.N, c.T), opts.Seed, opts.Reliable
	procs, lo, byz, judged, err := r.Live()
	if err != nil {
		return nil, err
	}
	lo.MaxJitter = opts.MaxJitter
	lo.FlapParties, lo.FlapAfter, lo.FlapStagger, lo.FlapLen = opts.FlapParties, opts.FlapAfter, opts.FlapStagger, opts.FlapLen
	res, err := livenet.Run(ctx, procs, lo)
	if res == nil {
		return nil, err
	}
	out := outcome(harness.Judge(r.Inputs, byz, judged, res.Decisions, r.Eps), res.Decisions)
	out.Messages, out.Dropped, out.Duped = int(res.Messages), int(res.Dropped), int(res.Duped)
	out.Retransmits = int(res.Transport.Retransmits)
	out.Err = err
	return out, err
}
