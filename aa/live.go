package aa

import (
	"cmp"
	"context"
	"fmt"
	"time"
)

// LiveOptions tunes RunLive.
type LiveOptions struct {
	// MaxJitter bounds the injected delivery delay: each message is held
	// for a uniform draw from [0, MaxJitter). Zero selects the 2ms
	// default; a negative value injects no delay at all.
	MaxJitter time.Duration
	// Seed drives the jitter randomness.
	Seed int64
	// Scenario is the run's adversary: the tokens of a WithScenario spec
	// without its "/params", which are the config's (N, T). It names the
	// "random" scheduler (the default) and any of the loss, dup, flap,
	// outage, recover and amnesia axes and the Byzantine tokens, e.g.
	// "random+loss:0.1+flap". Its windows are in protocol ticks of 1ms.
	Scenario string
	// Reliable wraps every honest party in the ack/retransmit transport
	// (internal/relnet), which heals lost and darkened sends by
	// retransmission; the raw transport degrades instead.
	Reliable bool
}

// RunLive executes the protocol on a real goroutine-per-party runtime with
// per-party mailboxes and jittered delivery, and returns the checked
// outcome. The context bounds the run; a generous timeout should be used
// since the runtime is only as fast as its timers.
//
// The run is the recipe of opts' scenario at (N, T), seed and transport,
// lowered as Simulate lowers it; the wall-clock jitter goes on top, and a
// scenario token the live runtime cannot run is an error naming it.
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
	r.Scenario = fmt.Sprintf("%s/n=%d,t=%d", cmp.Or(opts.Scenario, SchedRandom), c.N, c.T)
	r.Seed, r.Reliable = opts.Seed, opts.Reliable
	res, v, err := r.RunLive(ctx, opts.MaxJitter, 0)
	if res == nil {
		return nil, err
	}
	out := outcome(v, res.Decisions)
	out.Messages, out.Dropped, out.Duped = int(res.Messages), int(res.Dropped), int(res.Duped)
	out.Retransmits, out.Err = int(res.Transport.Retransmits), err
	return out, err
}
