// Package core implements the asynchronous approximate-agreement protocol
// family that is this repository's primary contribution: round-based
// convergence protocols in which each party repeatedly exchanges its value,
// collects a quorum of n−t round-tagged values, and applies an approximation
// function to contract the diameter of the honest values geometrically.
//
// Three protocols are provided:
//
//   - CrashAA (ProtoCrash): crash faults, n ≥ 2t+1. With the default
//     mid-extremes function the diameter provably halves per asynchronous
//     round, because any two quorums of size n−t intersect.
//   - ByzTrimAA (ProtoByzTrim): Byzantine faults without reliable broadcast,
//     with f = MidExtremes∘reduce^2t and resilience n ≥ 7t+1. At this
//     resilience any two reception sets share ≥ n−3t ≥ 4t+1 honest values
//     even under equivocation, so the median of the common values survives
//     both parties' 2t-trims and per-round halving is provable; trimming
//     2t ≥ t per side gives validity. Classical presentations claim n > 5t
//     for witness-free Byzantine convergence with more intricate machinery;
//     experiment E1 demonstrates concretely that this trim-based family
//     stalls under an equivocation attack at n = 5t+1 — which is exactly
//     the gap the witness technique (ProtoWitness, n ≥ 3t+1) closes.
//   - WitnessAA (ProtoWitness): Byzantine faults at the optimal resilience
//     n ≥ 3t+1, built from reliable broadcast plus the witness technique;
//     per-round halving is again provable (see internal/rbc and witness.go).
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/multiset"
)

// Protocol selects a member of the protocol family.
type Protocol int

// Protocol identifiers.
const (
	// ProtoCrash is the asynchronous crash-fault protocol (n ≥ 2t+1).
	ProtoCrash Protocol = iota + 1
	// ProtoByzTrim is the asynchronous Byzantine protocol without reliable
	// broadcast (provable resilience n ≥ 7t+1; see the package comment for
	// why the classical n > 5t claim needs more machinery than trimming).
	ProtoByzTrim
	// ProtoWitness is the asynchronous Byzantine protocol with reliable
	// broadcast and the witness technique (optimal resilience n ≥ 3t+1).
	ProtoWitness
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoCrash:
		return "crash-aa"
	case ProtoByzTrim:
		return "byztrim-aa"
	case ProtoWitness:
		return "witness-aa"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// protoTokens are the protocols' short names, indexed by Protocol.
var protoTokens = [...]string{ProtoCrash: "crash", ProtoByzTrim: "trim", ProtoWitness: "witness"}

// Token returns p's short name, the vocabulary of the CLIs' -model flags
// and of incident bundles: "crash", "trim" or "witness".
// ParseProtocol inverts it. A p outside the family has no token and
// returns "".
func (p Protocol) Token() string {
	if p < ProtoCrash || int(p) >= len(protoTokens) {
		return ""
	}
	return protoTokens[p]
}

// ParseProtocol returns the protocol whose Token is tok. The error for an
// unknown tok wraps ErrBadParams and lists every token.
func ParseProtocol(tok string) (Protocol, error) {
	for p := ProtoCrash; int(p) < len(protoTokens); p++ {
		if protoTokens[p] == tok {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown protocol %q (%s)", ErrBadParams, tok, strings.Join(protoTokens[ProtoCrash:], " | "))
}

// Sentinel errors.
var (
	// ErrResilience indicates (n, t) violates the protocol's fault bound.
	ErrResilience = errors.New("core: fault bound violated")
	// ErrBadParams indicates structurally invalid parameters.
	ErrBadParams = errors.New("core: invalid parameters")
)

// Params configures one protocol instance. The same Params value must be
// used by every party of a run (it is common knowledge, like the protocol
// code itself).
type Params struct {
	// Protocol selects the family member.
	Protocol Protocol
	// N and T are the party count and fault bound.
	N, T int
	// Eps is the agreement precision ε > 0.
	Eps float64
	// Lo and Hi bound the honest inputs in fixed-range mode. The round
	// count is derived from Hi−Lo, so unconditional ε-agreement holds.
	Lo, Hi float64
	// Adaptive switches to adaptive termination: parties estimate the
	// spread from an initial exchange and piggyback round horizons.
	// Guarantees become conditional on scheduler fairness; see DESIGN.md.
	Adaptive bool
	// Gamma overrides the per-round contraction budget in (0,1);
	// zero selects the protocol default.
	Gamma float64
	// ExtraRounds adds safety slack to the computed round count.
	ExtraRounds int
	// Func overrides the approximation function; nil selects the default.
	Func multiset.Func
	// AllowBelowBound skips the resilience check. It exists only so the
	// experiments can demonstrate what breaks below the proven bound
	// (e.g. the trim protocol at the classical n = 5t+1); production
	// callers must leave it false.
	AllowBelowBound bool
}

// Quorum returns the reception-set size n−t the asynchronous protocols wait
// for each round.
func (p *Params) Quorum() int { return p.N - p.T }

// defaultGamma is the contraction budget used when Params.Gamma is 0: all
// three protocols have proven per-round halving with their default
// functions.
const defaultGamma = 0.5

// gamma resolves the effective contraction budget.
func (p *Params) gamma() float64 {
	if p.Gamma != 0 {
		return p.Gamma
	}
	return defaultGamma
}

// DefaultFunc returns the approximation function used when Params.Func is
// nil.
func (p *Params) DefaultFunc() multiset.Func {
	switch p.Protocol {
	case ProtoCrash:
		return multiset.MidExtremes{}
	case ProtoByzTrim:
		return multiset.MidExtremes{Trim: 2 * p.T}
	case ProtoWitness:
		return multiset.MidExtremes{Trim: p.T}
	default:
		return nil
	}
}

// fn resolves the effective approximation function.
func (p *Params) fn() multiset.Func {
	if p.Func != nil {
		return p.Func
	}
	return p.DefaultFunc()
}

// MinN returns the smallest party count the protocol supports for a given
// fault bound.
func MinN(proto Protocol, t int) int {
	switch proto {
	case ProtoCrash:
		return 2*t + 1
	case ProtoByzTrim:
		return 7*t + 1
	case ProtoWitness:
		return 3*t + 1
	default:
		return math.MaxInt
	}
}

// MaxT returns the largest fault bound the protocol supports at n parties:
// the largest t with MinN(proto, t) <= n, or 0 when no t fits.
func MaxT(proto Protocol, n int) int {
	t := 0
	for MinN(proto, t+1) <= n {
		t++
	}
	return t
}

// Validate checks the parameters, including the protocol's resilience
// requirement and that the quorum is large enough for the approximation
// function.
func (p *Params) Validate() error {
	if p.N < 1 || p.T < 0 {
		return fmt.Errorf("%w: n=%d t=%d", ErrBadParams, p.N, p.T)
	}
	if p.Protocol < ProtoCrash || int(p.Protocol) >= len(protoTokens) {
		return fmt.Errorf("%w: unknown protocol %d", ErrBadParams, int(p.Protocol))
	}
	if minN := MinN(p.Protocol, p.T); !p.AllowBelowBound && p.N < minN {
		return fmt.Errorf("%w: %s needs n >= %d for t = %d, got n = %d",
			ErrResilience, p.Protocol, minN, p.T, p.N)
	}
	if !(p.Eps > 0) || math.IsInf(p.Eps, 0) {
		return fmt.Errorf("%w: eps = %v", ErrBadParams, p.Eps)
	}
	if !p.Adaptive {
		if math.IsNaN(p.Lo) || math.IsNaN(p.Hi) || math.IsInf(p.Lo, 0) || math.IsInf(p.Hi, 0) || p.Hi < p.Lo {
			return fmt.Errorf("%w: range [%v, %v]", ErrBadParams, p.Lo, p.Hi)
		}
	}
	if g := p.Gamma; g != 0 && (g <= 0 || g >= 1 || math.IsNaN(g)) {
		return fmt.Errorf("%w: gamma = %v", ErrBadParams, g)
	}
	if p.ExtraRounds < 0 {
		return fmt.Errorf("%w: extra rounds = %d", ErrBadParams, p.ExtraRounds)
	}
	fn := p.fn()
	if fn == nil {
		return fmt.Errorf("%w: no approximation function", ErrBadParams)
	}
	if q, minIn := p.Quorum(), fn.MinInputs(); q < minIn {
		return fmt.Errorf("%w: quorum %d below %s minimum %d",
			ErrBadParams, q, fn.Name(), minIn)
	}
	return nil
}

// FixedRounds computes the common round count in fixed-range mode.
func (p *Params) FixedRounds() (int, error) {
	r, err := multiset.RoundBudget(p.Hi-p.Lo, p.Eps, p.gamma())
	if err != nil {
		return 0, fmt.Errorf("core: round budget: %w", err)
	}
	return r + p.ExtraRounds, nil
}

// adaptiveRounds computes a horizon from an observed spread estimate.
func (p *Params) adaptiveRounds(spread float64) int {
	r, err := multiset.RoundBudget(spread, p.Eps, p.gamma())
	if err != nil {
		// Non-finite estimates come only from Byzantine inputs, which the
		// message sanitizer already rejects; treat defensively as zero.
		return p.ExtraRounds
	}
	return r + p.ExtraRounds
}

// isUsable rejects the non-finite values Byzantine parties may inject.
func isUsable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
