package incident

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/sim"
)

// sendSum checksums a send's observable content: endpoints, send time, and
// payload bytes (FNV-1a). The result is forced nonzero so a dense array can
// use zero for "no send recorded at this sequence".
func sendSum(env *sim.Envelope) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint32(v&0xff)) * prime32
			v >>= 8
		}
	}
	mix(uint64(env.From))
	mix(uint64(env.To))
	mix(uint64(env.Sent))
	mix(uint64(len(env.Data)))
	for _, c := range env.Data {
		h = (h ^ uint32(c)) * prime32
	}
	if h == 0 {
		h = 1
	}
	return h
}

// digester is the Spec.Observer that folds every delivery into a running
// hash. Observer callbacks replay in identical order in production and in
// the reference configuration (see sim.Config.Reference), so the hash is
// the same in both.
type digester struct {
	deliveries int64
	hash       uint64
}

func (d *digester) observe(now sim.Time, env sim.Envelope) {
	const prime64 = 1099511628211
	h := d.hash
	if h == 0 {
		h = 14695981039346656037 // FNV-1a offset basis
	}
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mix(uint64(now))
	mix(uint64(env.From))
	mix(uint64(env.To))
	mix(env.Seq)
	mix(uint64(len(env.Data)))
	for _, c := range env.Data {
		h = (h ^ uint64(c)) * prime64
	}
	d.hash = h
	d.deliveries++
}

// captureProbe wraps the real scheduler during capture: it records the
// full network fate of every send — the clamped delay, the drop verdict,
// the duplication — plus the per-send content checksum, dense by send
// sequence. Together with replayProbe it is the repository's one
// record/replay pair.
type captureProbe struct {
	inner  sim.Scheduler
	delays []sim.Time
	sums   []uint32
	drops  []uint64
	dups   []Dup
}

var _ sim.Scheduler = (*captureProbe)(nil)

func (p *captureProbe) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	f := sim.FateOf(p.inner, env, rng)
	for uint64(len(p.delays)) <= env.Seq {
		p.delays = append(p.delays, 0)
		p.sums = append(p.sums, 0)
	}
	p.delays[env.Seq] = f.Delay
	p.sums[env.Seq] = sendSum(env)
	// The simulator hands out send sequences in ascending order, so the
	// fate lists are strictly ascending by construction (Validate pins it).
	if f.Drop {
		p.drops = append(p.drops, env.Seq)
	}
	if f.DupExtra > 0 {
		p.dups = append(p.dups, Dup{Seq: env.Seq, Extra: f.DupExtra})
	}
	return f
}

// Capture executes the run a bundle's recipe names and fills in its trace
// (Delays, SendSums, Drops, Dups, Checkpoints) and Digest. The recipe must
// already be set; any prior trace content is replaced. The run's own report is returned so
// callers can print or inspect the outcome.
//
// Note that Capture resolves Byzantine names through the scenario registry,
// and the captured run is the one the bundle will replay — the whole loop
// is self-consistent by construction.
func Capture(b *Bundle) (*harness.Report, error) {
	spec, err := b.checkedSpec()
	if err != nil {
		return nil, err
	}
	probe := &captureProbe{inner: spec.Scheduler.Scheduler}
	spec.Scheduler.Scheduler = probe
	dig := &digester{}
	spec.Observer = dig.observe
	rep, err := harness.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("incident: capture: %w", err)
	}
	b.Delays = probe.delays
	b.SendSums = probe.sums
	b.Drops = probe.drops
	b.Dups = probe.dups
	b.Checkpoints = append([]uint64(nil), rep.Checkpoints...)
	b.Digest = digestOf(rep, dig.deliveries, dig.hash)
	return rep, nil
}

// NoDivergentSend is Divergence.FirstBadSend's value when every recorded
// send matched (the divergence was caught by the digest instead, e.g. a
// missing delivery).
const NoDivergentSend = math.MaxUint64

// Divergence describes how a replay differed from the recorded execution.
type Divergence struct {
	// FirstBadSend is the lowest send sequence whose content checksum
	// differed from the recording (or which the recording does not
	// contain), or NoDivergentSend if sends matched.
	FirstBadSend uint64
	// Mismatches lists human-readable field-level diffs.
	Mismatches []string
}

// Error renders the divergence as an error wrapping ErrDivergence.
func (d *Divergence) Error() error {
	if d == nil {
		return nil
	}
	first := "none"
	if d.FirstBadSend != NoDivergentSend {
		first = fmt.Sprintf("%d", d.FirstBadSend)
	}
	return fmt.Errorf("%w: first divergent send seq=%s; %d field mismatches: %v",
		ErrDivergence, first, len(d.Mismatches), d.Mismatches)
}

// replayProbe replays recorded network fates — delays plus the recorded
// drop/dup decisions — and verifies every send against the recorded
// checksums, tracking the first divergent sequence. It draws nothing from
// the rng, so a replay needs neither the recorded scheduler nor its seed.
type replayProbe struct {
	delays   []sim.Time
	sums     []uint32
	drops    map[uint64]struct{}
	dups     map[uint64]sim.Time
	firstBad uint64
	sends    uint64
}

var _ sim.Scheduler = (*replayProbe)(nil)

// newReplayProbe builds a probe over a recorded trace: delays and sums
// dense by send sequence, drops and dups ascending by sequence.
func newReplayProbe(delays []sim.Time, sums []uint32, drops []uint64, dups []Dup) *replayProbe {
	p := &replayProbe{delays: delays, sums: sums, firstBad: NoDivergentSend}
	if len(drops) > 0 {
		p.drops = make(map[uint64]struct{}, len(drops))
		for _, seq := range drops {
			p.drops[seq] = struct{}{}
		}
	}
	if len(dups) > 0 {
		p.dups = make(map[uint64]sim.Time, len(dups))
		for _, dup := range dups {
			p.dups[dup.Seq] = dup.Extra
		}
	}
	return p
}

// Fate replays the recorded fate of env.Seq. A send the recording does not
// hold gets delay 0, which the network clamps to 1.
func (p *replayProbe) Fate(env *sim.Envelope, _ *rand.Rand) sim.Fate {
	p.sends++
	bad := env.Seq >= uint64(len(p.sums)) ||
		p.sums[env.Seq] == 0 ||
		p.sums[env.Seq] != sendSum(env)
	if bad && env.Seq < p.firstBad {
		p.firstBad = env.Seq
	}
	var f sim.Fate
	if env.Seq < uint64(len(p.delays)) {
		f.Delay = p.delays[env.Seq]
	}
	if _, ok := p.drops[env.Seq]; ok {
		f.Drop = true
	}
	if extra, ok := p.dups[env.Seq]; ok {
		f.DupExtra = extra
	}
	return f
}

// Prepared is a bundle lowered to a runnable replay spec. Run the Spec
// (harness.Run, or harness.RunAll for a matrix) and hand the report to
// Diff. Each Prepared must be used for exactly one run: the probe and
// digest accumulate state.
type Prepared struct {
	Spec   harness.Spec
	bundle *Bundle
	probe  *replayProbe
	dig    *digester
}

// Prepare lowers the bundle for replay: the spec's scheduler is replaced
// by the recorded delay log (with send verification) and the observer by a
// fresh digester.
func Prepare(b *Bundle) (*Prepared, error) {
	spec, err := b.checkedSpec()
	if err != nil {
		return nil, err
	}
	probe := newReplayProbe(b.Delays, b.SendSums, b.Drops, b.Dups)
	spec.Scheduler = sched.Named{Name: "replay:" + b.Scenario, Scheduler: probe}
	dig := &digester{}
	spec.Observer = dig.observe
	return &Prepared{Spec: spec, bundle: b, probe: probe, dig: dig}, nil
}

// Diff compares the finished replay against the recorded digest. A nil
// return means the replay was equivalent in every observable.
func (p *Prepared) Diff(rep *harness.Report) *Divergence {
	div := &Divergence{FirstBadSend: p.probe.firstBad}
	add := func(format string, args ...any) {
		div.Mismatches = append(div.Mismatches, fmt.Sprintf(format, args...))
	}
	want, got := &p.bundle.Digest, digestOf(rep, p.dig.deliveries, p.dig.hash)
	recordedSends := uint64(0)
	for _, s := range p.bundle.SendSums {
		if s != 0 {
			recordedSends++
		}
	}
	if p.probe.sends != recordedSends {
		add("sends: recorded %d, replayed %d", recordedSends, p.probe.sends)
	}
	if len(got.Decisions) != len(want.Decisions) {
		add("decisions: recorded %d, replayed %d", len(want.Decisions), len(got.Decisions))
	} else {
		for i := range want.Decisions {
			w, g := want.Decisions[i], got.Decisions[i]
			if w != g {
				add("decision[party %d]: recorded (%v at %d), replayed (party %d, %v at %d)",
					w.Party, w.Value, w.At, g.Party, g.Value, g.At)
			}
		}
	}
	if got.FinishTime != want.FinishTime {
		add("finish time: recorded %d, replayed %d", want.FinishTime, got.FinishTime)
	}
	if got.MaxHonestDelay != want.MaxHonestDelay {
		add("max honest delay: recorded %d, replayed %d", want.MaxHonestDelay, got.MaxHonestDelay)
	}
	if got.MessagesSent != want.MessagesSent {
		add("messages sent: recorded %d, replayed %d", want.MessagesSent, got.MessagesSent)
	}
	if got.MessagesDelivered != want.MessagesDelivered {
		add("messages delivered: recorded %d, replayed %d", want.MessagesDelivered, got.MessagesDelivered)
	}
	if got.BytesSent != want.BytesSent {
		add("bytes sent: recorded %d, replayed %d", want.BytesSent, got.BytesSent)
	}
	if got.MessagesDropped != want.MessagesDropped {
		add("messages dropped: recorded %d, replayed %d", want.MessagesDropped, got.MessagesDropped)
	}
	if got.MessagesDuped != want.MessagesDuped {
		add("messages duped: recorded %d, replayed %d", want.MessagesDuped, got.MessagesDuped)
	}
	if got.Deliveries != want.Deliveries {
		add("deliveries: recorded %d, replayed %d", want.Deliveries, got.Deliveries)
	}
	if got.DeliveryHash != want.DeliveryHash {
		add("delivery hash: recorded %#x, replayed %#x", want.DeliveryHash, got.DeliveryHash)
	}
	if got.RunErr != want.RunErr {
		add("run verdict: recorded %d, replayed %d", want.RunErr, got.RunErr)
	}
	if got.ProtoErrs != want.ProtoErrs {
		add("protocol errors: recorded %d, replayed %d", want.ProtoErrs, got.ProtoErrs)
	}
	if len(rep.Checkpoints) != len(p.bundle.Checkpoints) {
		add("checkpoints: recorded %d, replayed %d", len(p.bundle.Checkpoints), len(rep.Checkpoints))
	} else {
		for i, ck := range p.bundle.Checkpoints {
			if rep.Checkpoints[i] != ck {
				add("checkpoint[%d]: recorded %#x, replayed %#x", i, ck, rep.Checkpoints[i])
			}
		}
	}
	if div.FirstBadSend == NoDivergentSend && len(div.Mismatches) == 0 {
		return nil
	}
	return div
}

// Replay re-executes a bundle and diffs it against the recorded digest. A
// nil Divergence means an exact match. The error return covers failures to
// run at all (invalid bundle, harness error), not divergence.
func Replay(b *Bundle) (*harness.Report, *Divergence, error) {
	prep, err := Prepare(b)
	if err != nil {
		return nil, nil, err
	}
	rep, err := harness.Run(prep.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("incident: replay: %w", err)
	}
	return rep, prep.Diff(rep), nil
}
