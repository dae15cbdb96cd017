// Package aa is the public API of the asynchronous approximate-agreement
// library: n parties with real-valued inputs, up to t faulty, reach outputs
// within ε of each other inside the convex hull of the non-faulty inputs,
// over a fully asynchronous message-passing network.
//
// Three asynchronous protocols are offered, selected by Model:
//
//   - ModelCrash (n ≥ 2t+1): crash faults; provable per-round halving.
//   - ModelByzantineTrim (n ≥ 7t+1): Byzantine faults with quadratic
//     message complexity; provable per-round halving.
//   - ModelByzantineWitness (n ≥ 3t+1): Byzantine faults at optimal
//     resilience via reliable broadcast and the witness technique; cubic
//     message complexity.
//
// Use Simulate to run a protocol on the deterministic discrete-event
// simulator under a chosen adversary, or RunLive to run it on a real
// goroutine-per-party runtime with per-party mailboxes.
//
// Both runtimes run the same kind of run description (a harness recipe)
// and can degrade the network: Simulate takes loss, duplication, regional
// outages, flapping parties and crash-recovery restarts as scenario axes
// ("loss:P"/"dup:P"/"outage:k:start:len"/"flap:len"/"recover:k:down:lag");
// RunLive takes the same axes in the same spec (LiveOptions.Scenario), its
// tick windows 1ms long, and fails on, rather than ignores, any scenario
// token the live runtime cannot run. Both can wrap every honest party in
// an ack/retransmit transport (WithReliable / LiveOptions.Reliable) that
// heals the damage.
// The Outcome's Dropped, Duped, and Retransmits counters report what the
// network did; a live timeout returns the partial Outcome with the error.
package aa

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Model selects the protocol / fault model.
type Model int

// Models.
const (
	// ModelCrash tolerates t < n/2 crash faults.
	ModelCrash Model = iota + 1
	// ModelByzantineTrim tolerates t < n/7 Byzantine faults with O(n²)
	// messages per round.
	ModelByzantineTrim
	// ModelByzantineWitness tolerates t < n/3 Byzantine faults with O(n³)
	// messages per round.
	ModelByzantineWitness
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelCrash:
		return "crash"
	case ModelByzantineTrim:
		return "byzantine-trim"
	case ModelByzantineWitness:
		return "byzantine-witness"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ErrUnknownModel is returned for an unrecognized Model.
var ErrUnknownModel = errors.New("aa: unknown model")

// Config describes one agreement instance. All parties must use identical
// configurations (the configuration is common knowledge, like the protocol
// itself).
type Config struct {
	// Model selects the protocol / fault model.
	Model Model
	// N is the number of parties, T the fault bound.
	N, T int
	// Epsilon is the agreement precision: honest outputs differ by at most
	// Epsilon.
	Epsilon float64
	// Lo and Hi promise a range containing every honest input; the round
	// count is derived from it. Required unless Adaptive is set.
	Lo, Hi float64
	// Adaptive lets the parties estimate the spread at runtime instead of
	// using [Lo, Hi]; cheaper when the real spread is far below the
	// promised range, but the termination guarantee becomes conditional on
	// scheduler fairness (see DESIGN.md).
	Adaptive bool
	// ExtraRounds adds safety rounds beyond the computed budget.
	ExtraRounds int
}

// protocols maps each Model to its core protocol: the one mapping behind
// params and MinN.
var protocols = [...]core.Protocol{
	ModelCrash:            core.ProtoCrash,
	ModelByzantineTrim:    core.ProtoByzTrim,
	ModelByzantineWitness: core.ProtoWitness,
}

func (m Model) protocol() (core.Protocol, error) {
	if m < ModelCrash || int(m) >= len(protocols) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownModel, int(m))
	}
	return protocols[m], nil
}

// params converts the public configuration to the internal one.
func (c Config) params() (core.Params, error) {
	proto, err := c.Model.protocol()
	p := core.Params{
		Protocol:    proto,
		N:           c.N,
		T:           c.T,
		Eps:         c.Epsilon,
		Lo:          c.Lo,
		Hi:          c.Hi,
		Adaptive:    c.Adaptive,
		ExtraRounds: c.ExtraRounds,
	}
	if err != nil {
		return p, err
	}
	return p, p.Validate()
}

// Validate checks the configuration without running anything.
func (c Config) Validate() error {
	_, err := c.params()
	return err
}

// Rounds reports the round budget the configuration implies (0 for adaptive
// configurations, whose budget is input-dependent).
func (c Config) Rounds() (int, error) {
	p, err := c.params()
	if err != nil {
		return 0, err
	}
	if c.Adaptive {
		return 0, nil
	}
	return p.FixedRounds()
}

// MinN returns the smallest n supporting fault bound t under a model.
func MinN(m Model, t int) (int, error) {
	proto, err := m.protocol()
	if err != nil {
		return 0, err
	}
	return core.MinN(proto, t), nil
}

// NewProcess builds the protocol state machine for one party with the given
// input. The returned process can be attached to the simulator or to the
// live runtime; advanced users can drive it over their own transport by
// implementing the internal process contract.
func NewProcess(c Config, input float64) (sim.Process, error) {
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	return core.NewProcess(p, input)
}
