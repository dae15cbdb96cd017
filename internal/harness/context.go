package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relnet"
	"repro/internal/sim"
)

// This file is the run-context recycling layer: the structural answer to
// the last allocation cost the hot-path PRs left standing, the per-*run*
// construction of a fresh simulator (calendar wheel, event arena, payload
// blocks), fresh protocol parties, and fresh RBC slabs for every one of
// the hundreds of engine runs behind each experiment table.
//
// A RunContext owns one resettable copy of all of that. Run(spec) resets
// the pieces the spec needs (sim.Network.Reset, the party Resets, and —
// through WitnessAA.Init — rbc.Broadcaster.Reset) and executes; after a
// one-run warm-up of a given shape, a context executes an entire
// scheduler×seed sweep with zero steady-state heap allocations on the
// reused-report path (pinned by TestRunReusedAllocs).
//
// Equivalence argument. A run must remain a pure function of its Spec, so
// Reset must be indistinguishable from fresh construction. Every Reset in
// the stack re-derives all run-visible state from its arguments (a party's
// rand source is reseeded from the run's seed on its first draw of the run,
// and a stream depends only on its seed, so it is identical to a fresh
// source's; cleared maps and re-zeroed bitsets are observably empty;
// recycled slabs are re-zeroed before reuse) — the same deferred-quiescent
// style of argument used for rbc.ReleaseRound.
// The tests in equivalence_test.go pin it end to end: every experiment
// table renders byte-identically on production engines (recycled
// contexts) and on a reference engine (a fresh context per run).

// RunContext is a reusable execution context: a resettable simulator, a
// pool of resettable protocol parties per protocol family, and reusable
// report/result/estimator storage. A context is single-threaded; a
// production engine recycles one per worker via the package pool. The
// zero value is not ready; use NewRunContext.
type RunContext struct {
	// reference runs the simulator in its reference configuration; only a
	// reference Engine sets it, on the fresh context it builds per run.
	reference bool

	net    *sim.Network
	asyncs []*core.AsyncAA
	wits   []*core.WitnessAA
	// est collects the estimator-capable honest parties of the current
	// run, for trajectory sampling (diameter only — identity irrelevant).
	est []sim.Estimator
	byz map[sim.PartyID]sim.Process
	// rel pools reliable-transport wrappers (Spec.Reliable); relUsed is
	// how many the current run attached, for the post-run stats sweep.
	rel     []*relnet.Proc
	relUsed int
	// live holds a live run's processes (liveProcs).
	live []sim.Process

	// Observer state for trajectory/trace runs. obsFn caches the observer
	// closure (one bound-method value per context, not one per run); the
	// remaining fields are the per-run parameters it reads, so a warm
	// trajectory-recording run allocates nothing (TestTrajectoryReusedAllocs).
	obsFn    func(now sim.Time, env sim.Envelope)
	obsTrace func(now sim.Time, env sim.Envelope)
	obsRep   *Report
	obsLast  float64
	obsTraj  bool

	// byzPool recycles Byzantine behavior processes across runs: a run's
	// processes are parked here at the start of the next run, and
	// fault.Renewer behaviors revive a parked process of their type
	// instead of rebuilding it — the same pooling the protocol parties
	// get, which is what pins the warm Byzantine path at zero allocations
	// (TestByzRunReusedAllocs). Pool size is bounded by the largest
	// Byzantine cohort the context has served.
	byzPool []sim.Process

	// rep and res back the reused-report Run path; they are handed to the
	// caller and remain valid until the next Run on this context.
	rep Report
	res sim.Result
}

// NewRunContext builds an empty context. Its pools warm up lazily: the
// first run of a given shape allocates, later same-shape runs do not.
func NewRunContext() *RunContext { return &RunContext{} }

// Run executes a spec on the context and returns the context-owned report,
// which is valid until the next Run call on the same context. This is the
// zero-steady-state-allocation form; callers that retain reports across
// runs use Engine.Run (or the package-level Run) instead.
func (c *RunContext) Run(spec Spec) (*Report, error) {
	c.rep.Result = &c.res
	if err := c.run(spec, &c.rep); err != nil {
		return nil, err
	}
	return &c.rep, nil
}

// party returns the context's recycled party i for the spec's protocol,
// reset for a new run. Errors are exactly those of the New* constructors.
func (c *RunContext) party(p core.Params, i int, input float64) (sim.Process, error) {
	switch p.Protocol {
	case core.ProtoCrash, core.ProtoByzTrim:
		for len(c.asyncs) <= i {
			c.asyncs = append(c.asyncs, new(core.AsyncAA))
		}
		if err := c.asyncs[i].Reset(p, input); err != nil {
			return nil, err
		}
		return c.asyncs[i], nil
	case core.ProtoWitness:
		for len(c.wits) <= i {
			c.wits = append(c.wits, new(core.WitnessAA))
		}
		if err := c.wits[i].Reset(p, input); err != nil {
			return nil, err
		}
		return c.wits[i], nil
	default:
		return nil, fmt.Errorf("harness: unknown protocol %v", p.Protocol)
	}
}

// observe is the context's reusable observer body: the optional trace
// callback first, then change-sampled honest-diameter trajectory points.
func (c *RunContext) observe(now sim.Time, env sim.Envelope) {
	if c.obsTrace != nil {
		c.obsTrace(now, env)
	}
	if !c.obsTraj {
		return
	}
	d, ok := honestDiameter(c.est)
	if !ok {
		return
	}
	if d != c.obsLast {
		c.obsRep.Trajectory = append(c.obsRep.Trajectory, TrajPoint{Time: now, Diameter: d})
		c.obsLast = d
	}
}

// honest returns the context's recycled party i for a run of p, reset for
// input and, when reliable, wrapped in the context's next pooled
// ack/retransmit transport. The wrapper forwards Estimate/Err to the
// protocol underneath, so trajectory sampling and the protocol-error sweep
// see through it. Errors are exactly those of party.
func (c *RunContext) honest(p core.Params, i int, input float64, reliable bool) (sim.Process, error) {
	proc, err := c.party(p, i, input)
	if err != nil || !reliable {
		return proc, err
	}
	if len(c.rel) == c.relUsed {
		c.rel = append(c.rel, relnet.Wrap(proc))
	} else {
		c.rel[c.relUsed].Reset(proc)
	}
	c.relUsed++
	return c.rel[c.relUsed-1], nil
}

// maxByzPool bounds the Byzantine process pool; every built-in behavior
// renews, so the pool normally stabilizes at the largest cohort size.
const maxByzPool = 64

// byzProc builds the adversarial process for one Byzantine party, reviving
// a pooled process when the behavior supports it (fault.Renewer) and
// falling back to fresh construction otherwise. Pool order cannot affect
// determinism: Renew fully re-derives the process state from env, so any
// process of the right type is interchangeable with a fresh one.
func (c *RunContext) byzProc(b fault.Behavior, env fault.Env) sim.Process {
	if rn, ok := b.(fault.Renewer); ok {
		for i, cand := range c.byzPool {
			if proc, ok := rn.Renew(cand, env); ok {
				last := len(c.byzPool) - 1
				c.byzPool[i] = c.byzPool[last]
				c.byzPool[last] = nil
				c.byzPool = c.byzPool[:last]
				return proc
			}
		}
	}
	return b.New(env)
}

// renewByz parks the previous run's Byzantine processes in the pool and
// builds this run's, one per entry of byz, into c.byz. Parking at the start
// of a run also covers a previous run that returned an error, which skips
// any end-of-run cleanup. The processes are small concrete records
// (scratch buffers plus parameters), so keeping them warm does not pin a
// run graph the way the pre-pooling process closures did.
func (c *RunContext) renewByz(byz map[sim.PartyID]fault.Behavior, env fault.Env) {
	if len(c.byz) > 0 {
		for _, proc := range c.byz {
			// The cap bounds the pool when behaviors don't implement
			// fault.Renewer (their parked processes would never be drawn
			// again): beyond it, references are simply dropped to the GC.
			if len(c.byzPool) < maxByzPool {
				c.byzPool = append(c.byzPool, proc)
			}
		}
		clear(c.byz)
	}
	if len(byz) > 0 {
		if c.byz == nil {
			c.byz = make(map[sim.PartyID]sim.Process, len(byz))
		}
		for id, b := range byz {
			c.byz[id] = c.byzProc(b, env)
		}
	}
}

// eventBudget is the event budget of a run whose Spec.MaxEvents is 0: four
// times the deliveries of its rounds, never below sim.DefaultMaxEvents. A
// round delivers n² messages, 2n³ for witness (an echo and a ready from
// every party for every party's broadcast), and three times that under the
// reliable transport (acks and retransmits).
func eventBudget(p core.Params, rounds int, reliable bool) int {
	perRound := p.N * p.N
	if p.Protocol == core.ProtoWitness {
		perRound = 2 * p.N * p.N * p.N
	}
	if reliable {
		perRound *= 3
	}
	return max(sim.DefaultMaxEvents, 4*rounds*perRound)
}

// run executes spec into rep, recycling the context's simulator and party
// state. rep's storage (Result maps, ProtoErrs, Trajectory) is reused when
// already allocated and (re)allocated when not, so the same body serves
// both the reused-report and the fresh-report path.
func (c *RunContext) run(spec Spec, rep *Report) error {
	p := spec.Params
	if len(spec.Inputs) != p.N {
		return fmt.Errorf("harness: %d inputs for %d parties", len(spec.Inputs), p.N)
	}
	if !spec.allowOverfault && len(spec.Crashes)+len(spec.Byz) > p.T {
		return errTooManyFaults
	}
	env, err := behaviorEnv(p)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		N:         p.N,
		Scheduler: spec.Scheduler.Scheduler,
		Seed:      spec.Seed,
		Crashes:   spec.Crashes,
		Restarts:  spec.Restarts,
		MaxEvents: spec.MaxEvents,
		Reference: c.reference,
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = eventBudget(p, env.Rounds, spec.Reliable)
	}
	c.renewByz(spec.Byz, env)
	if len(spec.Byz) > 0 {
		cfg.Byzantine = c.byz
	}
	if c.net == nil {
		net, err := sim.New(cfg)
		if err != nil {
			return err
		}
		c.net = net
	} else if err := c.net.Reset(cfg); err != nil {
		return err
	}
	net := c.net
	c.est = c.est[:0]
	c.relUsed = 0
	for i := 0; i < p.N; i++ {
		id := sim.PartyID(i)
		if _, isByz := spec.Byz[id]; isByz {
			continue
		}
		proc, err := c.honest(p, i, spec.Inputs[i], spec.Reliable)
		if err != nil {
			return fmt.Errorf("harness: party %d: %w", i, err)
		}
		if err := net.SetProcess(id, proc); err != nil {
			return err
		}
		if est, ok := proc.(sim.Estimator); ok && !isCrashPlanned(spec.Crashes, id) {
			c.est = append(c.est, est)
		}
	}
	rep.ProtoErrs = rep.ProtoErrs[:0]
	rep.Trajectory = rep.Trajectory[:0]
	if spec.RecordTrajectory || spec.Observer != nil {
		if spec.RecordTrajectory {
			// Preallocate the trajectory from the round budget: the honest
			// diameter is sampled on change only, and every party's
			// estimate moves at most once per round, so n·(rounds+2)
			// covers a run's samples — later growth (a pathological
			// schedule) still appends correctly, it just allocates.
			if need := p.N * (env.Rounds + 2); cap(rep.Trajectory) < need {
				rep.Trajectory = make([]TrajPoint, 0, need)
			}
		}
		c.obsTrace = spec.Observer
		c.obsTraj = spec.RecordTrajectory
		c.obsRep = rep
		c.obsLast = math.Inf(1)
		if c.obsFn == nil {
			c.obsFn = c.observe
		}
		net.SetObserver(c.obsFn)
	}
	rep.RunErr = net.RunInto(rep.Result)
	// Detach the observer immediately: left in place it would pin the
	// (possibly caller-retained) report, the trajectory, and the user's
	// trace callback from an idle pooled context.
	if spec.RecordTrajectory || spec.Observer != nil {
		net.SetObserver(nil)
		c.obsTrace = nil
		c.obsRep = nil
		c.obsTraj = false
	}
	for i := 0; i < p.N; i++ {
		id := sim.PartyID(i)
		if ef, ok := net.Party(id).(interface{ Err() error }); ok {
			if _, isByz := spec.Byz[id]; !isByz {
				if perr := ef.Err(); perr != nil {
					rep.ProtoErrs = append(rep.ProtoErrs, fmt.Errorf("party %d: %w", i, perr))
				}
			}
		}
	}
	rep.Checkpoints = append(rep.Checkpoints[:0], net.CheckpointDigests()...)
	rep.Transport = relnet.Stats{}
	for _, w := range c.rel[:c.relUsed] {
		rep.Transport.Add(w.TransportStats())
	}
	rep.check(spec)
	return nil
}
