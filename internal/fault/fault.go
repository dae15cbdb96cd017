// Package fault implements the adversarial party behaviors used to attack
// the approximate-agreement protocols: crash faults are expressed through
// sim.CrashPlan (including mid-multicast truncation), while the Byzantine
// behaviors here are full replacement processes that speak every wire
// dialect (plain round values, reliable-broadcast phases, witness reports)
// so the same behavior attacks every protocol in the family.
//
// Byzantine strategies deliberately do not follow the honest state machine;
// an asynchronous one-shot adversary loses no power by emitting all its
// traffic eagerly, because the scheduler already controls interleaving.
//
// Behavior processes are pool-friendly: every behavior implements Renewer,
// so the harness run contexts revive a previous run's processes instead of
// rebuilding them, and the processes encode into reusable scratch buffers
// (runtimes snapshot payloads on send), so a warm Byzantine run allocates
// nothing — the same economy contract the honest parties follow.
//
// This package holds the behaviors; the entry point for assigning them to
// parties is internal/scenario, whose registry couples each behavior (and
// the crash schedules) to fault-slot assignment in one declarative,
// parseable spec ("skew+equivocate/n=64,t=9"). New experiment code should
// compose scenario.Spec values rather than building Byzantine maps by
// hand.
package fault

import (
	"math"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Env tells a behavior enough about the run to be maximally annoying: the
// protocol's round horizon and the promised input range.
type Env struct {
	N      int
	Rounds int
	Lo, Hi float64
}

// Behavior constructs the adversarial process for one Byzantine party.
type Behavior interface {
	// Name labels the behavior in experiment tables.
	Name() string
	// New creates the process; called once per Byzantine party.
	New(env Env) sim.Process
}

// Renewer is an optional Behavior extension: a behavior that can revive a
// process built by an earlier New (of any behavior) for a new run instead
// of constructing a fresh one. Renew reports false when proc is not one of
// this behavior's process types; on true, the returned process must be
// observably identical to a fresh New(env) — the harness pins this by
// comparing pooled and fresh-construction experiment tables byte for byte.
type Renewer interface {
	Behavior
	Renew(proc sim.Process, env Env) (sim.Process, bool)
}

// Silent is the omission adversary: the party never sends anything. It
// forces every quorum to form without the faulty parties.
type Silent struct{}

var (
	_ Behavior = Silent{}
	_ Renewer  = Silent{}
)

// Name implements Behavior.
func (Silent) Name() string { return "silent" }

// New implements Behavior.
func (Silent) New(Env) sim.Process { return &silentProc{} }

// Renew implements Renewer.
func (Silent) Renew(proc sim.Process, _ Env) (sim.Process, bool) {
	p, ok := proc.(*silentProc)
	return p, ok
}

type silentProc struct{}

func (*silentProc) Init(sim.API)                {}
func (*silentProc) Deliver(sim.PartyID, []byte) {}

// Extreme floods every round with a fixed extreme value, both as plain
// round values and as reliable broadcasts, trying to drag the honest hull
// toward (or past) one end.
type Extreme struct {
	// Value is the value to push; typically far outside the honest range.
	Value float64
}

var (
	_ Behavior = Extreme{}
	_ Renewer  = Extreme{}
)

// Name implements Behavior.
func (Extreme) Name() string { return "extreme" }

// New implements Behavior.
func (b Extreme) New(env Env) sim.Process {
	return &extremeProc{env: env, value: b.Value}
}

// Renew implements Renewer.
func (b Extreme) Renew(proc sim.Process, env Env) (sim.Process, bool) {
	p, ok := proc.(*extremeProc)
	if !ok {
		return nil, false
	}
	p.env, p.value = env, b.Value
	return p, true
}

// extremeProc is Extreme's one-shot script, with a reusable wire scratch
// (the runtime snapshots payloads on send, so one buffer serves every
// message).
type extremeProc struct {
	env   Env
	value float64
	buf   []byte
}

var _ sim.Process = (*extremeProc)(nil)

func (p *extremeProc) Init(api sim.API) {
	for r := 1; r <= p.env.Rounds; r++ {
		p.buf = wire.AppendValue(p.buf[:0], wire.Value{Round: uint32(r), Value: p.value})
		api.Multicast(p.buf)
		p.buf = wire.AppendRBC(p.buf[:0], wire.RBC{
			Phase: wire.RBCSend, Origin: uint16(api.ID()), Round: uint32(r), Value: p.value,
		})
		api.Multicast(p.buf)
	}
	p.buf = wire.AppendInit(p.buf[:0], wire.Init{Value: p.value})
	api.Multicast(p.buf)
	p.buf = wire.AppendDecided(p.buf[:0], wire.Decided{Value: p.value})
	api.Multicast(p.buf)
}

func (*extremeProc) Deliver(sim.PartyID, []byte) {}

// ExtremeRel is Extreme with a range-relative push target: the value is
// computed per run as Hi + Scale·(Hi−Lo) from the promised range the
// behavior learns through Env, so the attack stays far outside the honest
// hull whatever range an experiment (or a scenario spec) runs on.
type ExtremeRel struct {
	// Scale is how many range-widths past the high end the lie goes.
	Scale float64
}

var (
	_ Behavior = ExtremeRel{}
	_ Renewer  = ExtremeRel{}
)

// Name implements Behavior.
func (ExtremeRel) Name() string { return "extreme" }

// New implements Behavior.
func (b ExtremeRel) New(env Env) sim.Process {
	return Extreme{Value: env.Hi + b.Scale*(env.Hi-env.Lo)}.New(env)
}

// Renew implements Renewer.
func (b ExtremeRel) Renew(proc sim.Process, env Env) (sim.Process, bool) {
	return Extreme{Value: env.Hi + b.Scale*(env.Hi-env.Lo)}.Renew(proc, env)
}

// Equivocate tells the low half of the parties the low extreme and the high
// half the high extreme, every round — the canonical split-the-views attack.
// Against the witness protocol its RBC sends are equivocated too, which
// reliable broadcast is expected to neutralize (a property test relies on
// this).
type Equivocate struct {
	// Stretch widens the lie beyond the promised range by this factor of
	// the range width (0 keeps lies at the range endpoints).
	Stretch float64
}

var (
	_ Behavior = Equivocate{}
	_ Renewer  = Equivocate{}
)

// Name implements Behavior.
func (Equivocate) Name() string { return "equivocate" }

// New implements Behavior.
func (b Equivocate) New(env Env) sim.Process {
	width := env.Hi - env.Lo
	return &equivocateProc{
		env: env,
		lo:  env.Lo - b.Stretch*width,
		hi:  env.Hi + b.Stretch*width,
	}
}

// Renew implements Renewer.
func (b Equivocate) Renew(proc sim.Process, env Env) (sim.Process, bool) {
	p, ok := proc.(*equivocateProc)
	if !ok {
		return nil, false
	}
	width := env.Hi - env.Lo
	p.env, p.lo, p.hi = env, env.Lo-b.Stretch*width, env.Hi+b.Stretch*width
	return p, true
}

type equivocateProc struct {
	env    Env
	lo, hi float64
	buf    []byte
}

var _ sim.Process = (*equivocateProc)(nil)

func (p *equivocateProc) Init(api sim.API) {
	half := p.env.N / 2
	for r := 1; r <= p.env.Rounds; r++ {
		for to := 0; to < p.env.N; to++ {
			v := p.lo
			if to >= half {
				v = p.hi
			}
			p.buf = wire.AppendValue(p.buf[:0], wire.Value{Round: uint32(r), Value: v})
			api.Send(sim.PartyID(to), p.buf)
			p.buf = wire.AppendRBC(p.buf[:0], wire.RBC{
				Phase: wire.RBCSend, Origin: uint16(api.ID()), Round: uint32(r), Value: v,
			})
			api.Send(sim.PartyID(to), p.buf)
		}
	}
	for to := 0; to < p.env.N; to++ {
		v := p.lo
		if to >= half {
			v = p.hi
		}
		p.buf = wire.AppendInit(p.buf[:0], wire.Init{Value: v})
		api.Send(sim.PartyID(to), p.buf)
	}
}

func (*equivocateProc) Deliver(sim.PartyID, []byte) {}

// Spam floods random garbage: random round values (including attempts at
// NaN and infinities, which honest decoders must reject), malformed bytes,
// fake reports, and random RBC phases. It tests input sanitization as much
// as agreement.
type Spam struct{}

var (
	_ Behavior = Spam{}
	_ Renewer  = Spam{}
)

// Name implements Behavior.
func (Spam) Name() string { return "spam" }

// New implements Behavior.
func (Spam) New(env Env) sim.Process { return &spamProc{env: env} }

// Renew implements Renewer.
func (Spam) Renew(proc sim.Process, env Env) (sim.Process, bool) {
	p, ok := proc.(*spamProc)
	if !ok {
		return nil, false
	}
	p.env = env
	return p, true
}

type spamProc struct {
	env     Env
	buf     []byte
	senders []uint16
	junk    [2]byte
}

var _ sim.Process = (*spamProc)(nil)

func (p *spamProc) Init(api sim.API) {
	rng := api.Rand()
	env := p.env
	poison := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308}
	for r := 1; r <= env.Rounds; r++ {
		v := poison[rng.Intn(len(poison))]
		if rng.Intn(2) == 0 {
			v = env.Lo + rng.Float64()*(env.Hi-env.Lo)*10 - (env.Hi-env.Lo)*5
		}
		p.buf = wire.AppendValue(p.buf[:0], wire.Value{
			Round:   uint32(rng.Intn(env.Rounds*2) + 1),
			Horizon: uint32(rng.Intn(1 << 16)),
			Value:   v,
		})
		api.Multicast(p.buf)
		p.buf = wire.AppendRBC(p.buf[:0], wire.RBC{
			Phase:  byte(rng.Intn(5)),
			Origin: uint16(rng.Intn(env.N + 2)),
			Round:  uint32(rng.Intn(env.Rounds*2) + 1),
			Value:  v,
		})
		api.Multicast(p.buf)
		if need := rng.Intn(env.N + 1); cap(p.senders) < need {
			p.senders = make([]uint16, need)
		} else {
			p.senders = p.senders[:need]
		}
		for i := range p.senders {
			p.senders[i] = uint16(rng.Intn(env.N + 3))
		}
		p.buf = wire.AppendReport(p.buf[:0], wire.Report{Round: uint32(r), Senders: p.senders})
		api.Multicast(p.buf)
		p.junk = [2]byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		api.Multicast(p.junk[:])
		api.Multicast(nil)
	}
}

func (*spamProc) Deliver(sim.PartyID, []byte) {}

// Amplifier is the adaptive adversary: it tracks the extreme honest values
// it has seen and keeps replaying a value just past the most extreme one,
// per round, trying to hold the diameter open as the honest parties
// contract. Unlike the scripted behaviors it reacts to received traffic.
type Amplifier struct {
	// Push is how far past the observed extreme the lie goes, as a
	// fraction of the promised range width.
	Push float64
}

var (
	_ Behavior = Amplifier{}
	_ Renewer  = Amplifier{}
)

// Name implements Behavior.
func (Amplifier) Name() string { return "amplifier" }

// New implements Behavior.
func (b Amplifier) New(env Env) sim.Process {
	return &amplifierProc{env: env, push: b.Push * (env.Hi - env.Lo)}
}

// Renew implements Renewer.
func (b Amplifier) Renew(proc sim.Process, env Env) (sim.Process, bool) {
	p, ok := proc.(*amplifierProc)
	if !ok {
		return nil, false
	}
	p.env, p.push = env, b.Push*(env.Hi-env.Lo)
	p.api, p.lo, p.hi = nil, 0, 0
	return p, true
}

type amplifierProc struct {
	env    Env
	api    sim.API
	push   float64
	lo, hi float64
	buf    []byte
}

var (
	_ sim.Process      = (*amplifierProc)(nil)
	_ sim.BatchProcess = (*amplifierProc)(nil)
)

func (a *amplifierProc) Init(api sim.API) {
	a.api = api
	a.lo, a.hi = a.env.Lo, a.env.Hi
	a.blast()
}

func (a *amplifierProc) Deliver(_ sim.PartyID, data []byte) {
	a.ingest(data)
}

// DeliverBatch implements sim.BatchProcess; re-blasts keep their exact
// per-envelope trigger points, so batched and unbatched runs are
// observably identical.
func (a *amplifierProc) DeliverBatch(b *sim.Batch) {
	for _, data, ok := b.Next(); ok; _, data, ok = b.Next() {
		a.ingest(data)
	}
}

func (a *amplifierProc) ingest(data []byte) {
	kind, err := wire.Peek(data)
	if err != nil || kind != wire.KindValue {
		return
	}
	m, err := wire.UnmarshalValue(data)
	if err != nil || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return
	}
	changed := false
	if m.Value < a.lo {
		a.lo, changed = m.Value, true
	}
	if m.Value > a.hi {
		a.hi, changed = m.Value, true
	}
	if changed {
		a.blast()
	}
}

// blast re-sends the current widened extremes for every round, split so
// half the network is pulled down and half up.
func (a *amplifierProc) blast() {
	half := a.env.N / 2
	for r := 1; r <= a.env.Rounds; r++ {
		for to := 0; to < a.env.N; to++ {
			v := a.lo - a.push
			if to >= half {
				v = a.hi + a.push
			}
			a.buf = wire.AppendValue(a.buf[:0], wire.Value{Round: uint32(r), Value: v})
			a.api.Send(sim.PartyID(to), a.buf)
			a.buf = wire.AppendRBC(a.buf[:0], wire.RBC{
				Phase: wire.RBCSend, Origin: uint16(a.api.ID()), Round: uint32(r), Value: v,
			})
			a.api.Send(sim.PartyID(to), a.buf)
		}
	}
}
