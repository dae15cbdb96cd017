// Package incident implements the record/replay corpus: a compact,
// versioned trace-bundle format that captures everything needed to
// re-execute one simulated run bit-for-bit — the canonical scenario string,
// the seed and protocol configuration, the per-send network fate (delay,
// drop, duplication), a per-send content checksum, and a digest of the
// execution's observable outcome (decisions, timing, message accounting,
// and the full delivery sequence hash).
//
// A bundle embeds the harness.Recipe of its run, the one run description
// that all four producers write: `aafuzz -artifacts`, `aaserve
// -artifacts`, `aarun -record` and the corpus episodes (corpus.go). It is
// captured with Capture, which records the fates through a probe wrapping
// the run's scheduler; it is persisted with Save/Load, and
// re-executed with Replay, which drives the run through a replay probe
// that hands back the recorded fates and diffs every observable against
// the recorded digest. The two probes are the repository's one
// record/replay pair. Any divergence — a send whose content differs, a
// missing delivery, a moved decision — is reported with the first
// divergent send sequence, which is the exact point to set a breakpoint
// on. The committed corpus under testdata/incidents/ replays in CI on
// production at 1 and 8 workers and on the reference configuration,
// turning every future perf refactor's equivalence argument into data.
package incident

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/sim"
)

// Version is the current bundle format version. Decode accepts versions 1
// through 3 and rejects anything else with frame.ErrVersion; the format is
// append-only within a version. Version 2 appends the network-fate record
// (dropped and duplicated send sequences, the reliable-transport flag, and
// the drop/dup counters in the digest); version 3 appends the checkpoint
// record (one content digest per crash-recovery snapshot, in firing
// order). Encode emits the lowest version that carries the bundle's data —
// version 1 without fate data, version 2 without checkpoints — so the
// pre-existing corpus re-encodes byte-identically.
const Version uint16 = 3

// versionFated is the first version carrying the network-fate record.
const versionFated uint16 = 2

// versionRecover is the first version carrying the checkpoint record.
const versionRecover uint16 = 3

// ErrDivergence indicates a replayed execution that does not match the
// bundle's recorded digest. Decode and Validate errors wrap the
// internal/frame sentinels: frame.ErrMalformed (frame.ErrTruncated and
// frame.ErrCorrupt wrap it) or frame.ErrVersion.
var ErrDivergence = errors.New("incident: replay diverged from recorded digest")

// Decision is one party's recorded output.
type Decision struct {
	Party sim.PartyID
	Value float64
	At    sim.Time
}

// Digest summarizes everything observable about an execution. Replay
// recomputes it and diffs field by field.
type Digest struct {
	// Decisions lists every party that decided, ascending by party.
	Decisions []Decision
	// FinishTime and MaxHonestDelay are the run's timing observables.
	FinishTime     sim.Time
	MaxHonestDelay sim.Time
	// Message accounting, from sim.Stats.
	MessagesSent      int64
	MessagesDelivered int64
	BytesSent         int64
	// MessagesDropped and MessagesDuped count the network-fate decisions
	// (loss/dup/outage/flap axes); version-2 bundles record them so a
	// replay that drops or duplicates differently is named directly rather
	// than only through downstream accounting drift.
	MessagesDropped int64
	MessagesDuped   int64
	// Deliveries counts observer callbacks; DeliveryHash chains an FNV-1a
	// hash over every delivery (time, from, to, seq, payload) in observer
	// order, so any reordering or payload change is caught even when the
	// counts agree.
	Deliveries   int64
	DeliveryHash uint64
	// RunErr encodes the simulator verdict: 0 ok, 1 stalled, 2 event
	// budget, 3 other.
	RunErr uint8
	// ProtoErrs counts internal protocol errors across parties.
	ProtoErrs int64
}

// Run-error codes for Digest.RunErr.
const (
	RunOK uint8 = iota
	RunStalled
	RunEventBudget
	RunOtherErr
)

func runErrCode(err error) uint8 {
	switch {
	case err == nil:
		return RunOK
	case errors.Is(err, sim.ErrStalled):
		return RunStalled
	case errors.Is(err, sim.ErrEventBudget):
		return RunEventBudget
	default:
		return RunOtherErr
	}
}

// Bundle is one replayable incident: a harness.Recipe, the run it names,
// plus the recorded trace of that run and a digest of its outcome. The
// recipe's scenario string is authoritative for n, t, and the delivery
// schedule; its overrides, when non-empty, replace the scenario's party
// faults.
type Bundle struct {
	// Name labels the incident (the testdata corpus uses episode names;
	// the fuzzer uses "fuzz-trial-<i>").
	Name string
	harness.Recipe
	// Delays is the recorded per-send delivery delay, clamped to
	// [1, sim.MaxDelayCap], dense by send sequence. Zero entries mean
	// "unrecorded".
	Delays []sim.Time
	// SendSums holds a per-send content checksum, dense by send sequence,
	// so replay can name the first send whose bytes diverge. Zero entries
	// mean "unrecorded" (sums are forced nonzero when present).
	SendSums []uint32
	// Drops lists the send sequences the network dropped (loss/outage/flap
	// axes), strictly ascending. Replay re-applies them verbatim, so the
	// recorded loss episode reproduces bit-for-bit.
	Drops []uint64
	// Dups lists the send sequences the network duplicated, strictly
	// ascending by sequence, each with the recorded extra delay of the
	// second copy.
	Dups []Dup
	// Checkpoints holds one content digest per crash-recovery snapshot the
	// run's restart plans took, in firing order (harness.Report.Checkpoints).
	// The restart plans themselves are re-derived from the scenario string's
	// recover/amnesia token on replay; the digests pin the snapshotted state
	// so a replay that checkpoints different bytes is named directly.
	Checkpoints []uint64
	// Digest is the recorded outcome replays are diffed against.
	Digest Digest
}

// Dup records one network-duplicated send: the second copy of send Seq
// arrived Extra ticks after the first.
type Dup struct {
	Seq   uint64
	Extra sim.Time
}

// fated reports whether the bundle carries version-2 fate data and must
// encode as version 2 or later.
func (b *Bundle) fated() bool {
	return len(b.Drops) > 0 || len(b.Dups) > 0 || b.Reliable ||
		b.Digest.MessagesDropped != 0 || b.Digest.MessagesDuped != 0
}

// recovered reports whether the bundle carries version-3 checkpoint data
// and must encode as version 3.
func (b *Bundle) recovered() bool {
	return len(b.Checkpoints) > 0
}

// caps bound decoded bundles so a hostile file cannot balloon memory.
const (
	maxStringLen = 1 << 12
	maxInputs    = 1 << 16
	maxFaults    = 1 << 16
	maxDecisions = 1 << 16
	maxSends     = 1 << 26
)

// Validate checks semantic soundness: the recipe lowers (the scenario
// parses with explicit n and t, the protocol parameters are runnable,
// fault overrides are in range and resolvable), its inputs are n finite
// values, and the trace arrays are mutually consistent. Every error wraps
// frame.ErrMalformed.
func (b *Bundle) Validate() error {
	_, err := b.checkedSpec()
	return err
}

// checkedSpec validates the bundle and returns its lowered recipe.
func (b *Bundle) checkedSpec() (harness.Spec, error) {
	spec, err := b.Lower()
	if err != nil {
		return harness.Spec{}, fmt.Errorf("%w: %v", frame.ErrMalformed, err)
	}
	if err := b.checkTrace(spec.Params.N); err != nil {
		return harness.Spec{}, err
	}
	return spec, nil
}

// checkTrace checks the inputs of an n-party run, the recorded decisions
// and the trace arrays.
func (b *Bundle) checkTrace(n int) error {
	if len(b.Inputs) != n {
		return fmt.Errorf("%w: %d inputs for n=%d", frame.ErrMalformed, len(b.Inputs), n)
	}
	// Runs take finite inputs and decide finite values; a NaN, which equals
	// nothing, not even itself, would also make the bundle undiffable.
	if math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
		return fmt.Errorf("%w: range [%v, %v]", frame.ErrMalformed, b.Lo, b.Hi)
	}
	for i, v := range b.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: input %d is %v", frame.ErrMalformed, i, v)
		}
	}
	for _, dec := range b.Digest.Decisions {
		if math.IsNaN(dec.Value) || math.IsInf(dec.Value, 0) {
			return fmt.Errorf("%w: party %d decided %v", frame.ErrMalformed, dec.Party, dec.Value)
		}
	}
	if len(b.SendSums) != len(b.Delays) {
		return fmt.Errorf("%w: %d send sums for %d delays", frame.ErrMalformed, len(b.SendSums), len(b.Delays))
	}
	for seq, d := range b.Delays {
		if d < 0 || d > sim.MaxDelayCap {
			return fmt.Errorf("%w: delay %d at seq %d outside [0,%d]", frame.ErrMalformed, d, seq, sim.MaxDelayCap)
		}
	}
	for i, seq := range b.Drops {
		if i > 0 && seq <= b.Drops[i-1] {
			return fmt.Errorf("%w: drop seqs not strictly ascending at index %d", frame.ErrMalformed, i)
		}
		if seq >= uint64(len(b.Delays)) || b.Delays[seq] == 0 {
			return fmt.Errorf("%w: dropped seq %d has no recorded send", frame.ErrMalformed, seq)
		}
	}
	for i, dup := range b.Dups {
		if i > 0 && dup.Seq <= b.Dups[i-1].Seq {
			return fmt.Errorf("%w: dup seqs not strictly ascending at index %d", frame.ErrMalformed, i)
		}
		if dup.Seq >= uint64(len(b.Delays)) || b.Delays[dup.Seq] == 0 {
			return fmt.Errorf("%w: duplicated seq %d has no recorded send", frame.ErrMalformed, dup.Seq)
		}
		if dup.Extra < 1 || dup.Extra > sim.MaxDelayCap {
			return fmt.Errorf("%w: dup extra delay %d at seq %d outside [1,%d]", frame.ErrMalformed, dup.Extra, dup.Seq, sim.MaxDelayCap)
		}
	}
	for i, ck := range b.Checkpoints {
		if ck == 0 {
			return fmt.Errorf("%w: zero checkpoint digest at index %d", frame.ErrMalformed, i)
		}
	}
	return nil
}

// digestOf summarizes a finished run plus the delivery trace the digester
// observed.
func digestOf(rep *harness.Report, deliveries int64, hash uint64) Digest {
	d := Digest{
		FinishTime:        rep.Result.FinishTime,
		MaxHonestDelay:    rep.Result.MaxHonestDelay,
		MessagesSent:      int64(rep.Result.Stats.MessagesSent),
		MessagesDelivered: int64(rep.Result.Stats.MessagesDelivered),
		BytesSent:         int64(rep.Result.Stats.BytesSent),
		MessagesDropped:   int64(rep.Result.Stats.MessagesDropped),
		MessagesDuped:     int64(rep.Result.Stats.MessagesDuped),
		Deliveries:        deliveries,
		DeliveryHash:      hash,
		RunErr:            runErrCode(rep.RunErr),
		ProtoErrs:         int64(len(rep.ProtoErrs)),
	}
	for id, v := range rep.Result.Decisions {
		d.Decisions = append(d.Decisions, Decision{Party: id, Value: v, At: rep.Result.DecidedAt[id]})
	}
	sortDecisions(d.Decisions)
	return d
}

func sortDecisions(ds []Decision) {
	// Insertion sort: decision lists are n-sized and this runs once per
	// capture/replay.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Party < ds[j-1].Party; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
