package incident

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/sim"
)

// The wire layout is deliberately boring: a frame (internal/frame) with
// magic "AAIB", a u16 version, a varint-packed body, and a CRC32 trailer
// over the body alone. Counts and times are uvarints (delays are small
// positive integers, so the dense log packs to ~1-2 bytes per send),
// floats are IEEE-754 bit patterns, and the seed is a zigzag varint.
// Decode is strictly bounds-checked and capped, so a truncated, corrupted,
// or hostile file fails with a wrapped frame sentinel — never a panic or
// an absurd allocation.
var bundleFormat = frame.Format{Magic: "AAIB", Version: Version}

// Encode serializes the bundle. The bundle must validate. Bundles with no
// network-fate data encode as version 1, byte-identical to the historical
// format; fate data (drops, dups, the reliable flag, nonzero digest
// drop/dup counters) switches to version 2, which appends the fate record
// after the digest; checkpoint digests (crash-recovery runs) switch to
// version 3, which appends the checkpoint record after the fate record.
func Encode(b *Bundle) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if len(b.Name) > maxStringLen || len(b.Scenario) > maxStringLen {
		return nil, fmt.Errorf("%w: name or scenario too long", frame.ErrMalformed)
	}
	if len(b.Delays) > maxSends {
		return nil, fmt.Errorf("%w: %d sends exceed cap", frame.ErrMalformed, len(b.Delays))
	}
	version := uint16(1)
	if b.fated() {
		version = versionFated
	}
	if b.recovered() {
		version = versionRecover
	}
	out := bundleFormat.Begin(make([]byte, 0, 74+8*len(b.Inputs)+3*len(b.Delays)+4*len(b.SendSums)), version)
	out = frame.AppendStr(out, b.Name)
	out = frame.AppendStr(out, b.Scenario)
	out = frame.AppendStr(out, b.Protocol)
	var flags uint8
	if b.Adaptive {
		flags |= 1
	}
	if b.Reliable {
		flags |= 2
	}
	out = append(out, flags)
	out = frame.AppendF64(out, b.Eps)
	out = frame.AppendF64(out, b.Lo)
	out = frame.AppendF64(out, b.Hi)
	out = frame.AppendUvarint(out, uint64(b.ExtraRounds))
	// A retired slot (the removed lock-step protocol's round length),
	// kept so the format needs no version bump; Decode requires 0.
	out = frame.AppendUvarint(out, 0)
	out = frame.AppendVarint(out, b.Seed)
	out = frame.AppendUvarint(out, uint64(b.MaxEvents))
	out = frame.AppendUvarint(out, uint64(len(b.Inputs)))
	for _, v := range b.Inputs {
		out = frame.AppendF64(out, v)
	}
	out = frame.AppendUvarint(out, uint64(len(b.Crashes)))
	for _, c := range b.Crashes {
		out = frame.AppendUvarint(out, uint64(c.Party))
		out = frame.AppendUvarint(out, uint64(c.AfterSends))
	}
	out = frame.AppendUvarint(out, uint64(len(b.Byz)))
	for _, z := range b.Byz {
		out = frame.AppendUvarint(out, uint64(z.Party))
		out = frame.AppendStr(out, z.Name)
	}
	out = frame.AppendUvarint(out, uint64(len(b.Delays)))
	for _, d := range b.Delays {
		out = frame.AppendUvarint(out, uint64(d))
	}
	out = frame.AppendUvarint(out, uint64(len(b.SendSums)))
	for _, s := range b.SendSums {
		out = frame.AppendU32(out, s)
	}
	d := &b.Digest
	out = frame.AppendUvarint(out, uint64(len(d.Decisions)))
	for _, dec := range d.Decisions {
		out = frame.AppendUvarint(out, uint64(dec.Party))
		out = frame.AppendF64(out, dec.Value)
		out = frame.AppendUvarint(out, uint64(dec.At))
	}
	out = frame.AppendUvarint(out, uint64(d.FinishTime))
	out = frame.AppendUvarint(out, uint64(d.MaxHonestDelay))
	out = frame.AppendUvarint(out, uint64(d.MessagesSent))
	out = frame.AppendUvarint(out, uint64(d.MessagesDelivered))
	out = frame.AppendUvarint(out, uint64(d.BytesSent))
	out = frame.AppendUvarint(out, uint64(d.Deliveries))
	out = frame.AppendU64(out, d.DeliveryHash)
	out = append(out, d.RunErr)
	out = frame.AppendUvarint(out, uint64(d.ProtoErrs))
	if version >= versionFated {
		out = frame.AppendUvarint(out, uint64(len(b.Drops)))
		for _, seq := range b.Drops {
			out = frame.AppendUvarint(out, seq)
		}
		out = frame.AppendUvarint(out, uint64(len(b.Dups)))
		for _, dup := range b.Dups {
			out = frame.AppendUvarint(out, dup.Seq)
			out = frame.AppendUvarint(out, uint64(dup.Extra))
		}
		out = frame.AppendUvarint(out, uint64(d.MessagesDropped))
		out = frame.AppendUvarint(out, uint64(d.MessagesDuped))
	}
	if version >= versionRecover {
		out = frame.AppendUvarint(out, uint64(len(b.Checkpoints)))
		for _, ck := range b.Checkpoints {
			out = frame.AppendU64(out, ck)
		}
	}
	return bundleFormat.Seal(out), nil
}

// intField reads a uvarint that must fit a non-negative int.
func intField(d *frame.Dec, what string) int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Fail(fmt.Errorf("%w: %s %d out of range", frame.ErrMalformed, what, v))
		return 0
	}
	return int(v)
}

// timeField reads a uvarint sim.Time.
func timeField(d *frame.Dec, what string) sim.Time {
	v := d.Uvarint()
	if v > uint64(math.MaxInt64) {
		d.Fail(fmt.Errorf("%w: %s %d out of range", frame.ErrMalformed, what, v))
		return 0
	}
	return sim.Time(v)
}

// Decode parses and validates a serialized bundle. Malformed input fails
// with an error wrapping frame.ErrMalformed (frame.ErrTruncated or
// frame.ErrCorrupt for the specific cases); an unsupported format version
// fails with frame.ErrVersion.
func Decode(data []byte) (*Bundle, error) {
	d, version, err := bundleFormat.Open(data)
	if err != nil {
		return nil, err
	}
	b := &Bundle{}
	b.Name = d.Str(maxStringLen)
	b.Scenario = d.Str(maxStringLen)
	b.Protocol = d.Str(maxStringLen)
	flags := d.U8()
	knownFlags := uint8(1)
	if version >= versionFated {
		knownFlags |= 2
	}
	if flags&^knownFlags != 0 {
		d.Fail(fmt.Errorf("%w: unknown flag bits %#x", frame.ErrMalformed, flags))
	}
	b.Adaptive = flags&1 != 0
	b.Reliable = flags&2 != 0
	b.Eps = d.F64()
	b.Lo = d.F64()
	b.Hi = d.F64()
	b.ExtraRounds = intField(&d, "extra rounds")
	if v := d.Uvarint(); v != 0 {
		d.Fail(fmt.Errorf("%w: retired slot holds %d, want 0", frame.ErrMalformed, v))
	}
	b.Seed = d.Varint()
	b.MaxEvents = intField(&d, "event budget")
	if n := d.Count(maxInputs, "input"); n > 0 {
		b.Inputs = make([]float64, n)
		for i := range b.Inputs {
			b.Inputs[i] = d.F64()
		}
	}
	if n := d.Count(maxFaults, "crash"); n > 0 {
		b.Crashes = make([]sim.CrashPlan, n)
		for i := range b.Crashes {
			b.Crashes[i] = sim.CrashPlan{
				Party:      sim.PartyID(intField(&d, "crash party")),
				AfterSends: intField(&d, "crash send budget"),
			}
		}
	}
	if n := d.Count(maxFaults, "byzantine"); n > 0 {
		b.Byz = make([]harness.ByzRef, n)
		for i := range b.Byz {
			b.Byz[i] = harness.ByzRef{Party: sim.PartyID(intField(&d, "byzantine party")), Name: d.Str(maxStringLen)}
		}
	}
	if n := d.Count(maxSends, "delay"); n > 0 {
		b.Delays = make([]sim.Time, n)
		for i := range b.Delays {
			b.Delays[i] = timeField(&d, "delay")
		}
	}
	if n := d.Count(maxSends, "send sum"); n > 0 {
		b.SendSums = make([]uint32, n)
		for i := range b.SendSums {
			b.SendSums[i] = d.U32()
		}
	}
	if n := d.Count(maxDecisions, "decision"); n > 0 {
		b.Digest.Decisions = make([]Decision, n)
		for i := range b.Digest.Decisions {
			b.Digest.Decisions[i] = Decision{
				Party: sim.PartyID(intField(&d, "decision party")),
				Value: d.F64(),
				At:    timeField(&d, "decision time"),
			}
		}
	}
	b.Digest.FinishTime = timeField(&d, "finish time")
	b.Digest.MaxHonestDelay = timeField(&d, "max honest delay")
	b.Digest.MessagesSent = int64(d.Uvarint())
	b.Digest.MessagesDelivered = int64(d.Uvarint())
	b.Digest.BytesSent = int64(d.Uvarint())
	b.Digest.Deliveries = int64(d.Uvarint())
	b.Digest.DeliveryHash = d.U64()
	b.Digest.RunErr = d.U8()
	b.Digest.ProtoErrs = int64(d.Uvarint())
	if version >= versionFated {
		if n := d.Count(maxSends, "drop"); n > 0 {
			b.Drops = make([]uint64, n)
			for i := range b.Drops {
				b.Drops[i] = d.Uvarint()
			}
		}
		if n := d.Count(maxSends, "dup"); n > 0 {
			b.Dups = make([]Dup, n)
			for i := range b.Dups {
				b.Dups[i] = Dup{Seq: d.Uvarint(), Extra: timeField(&d, "dup extra delay")}
			}
		}
		b.Digest.MessagesDropped = int64(d.Uvarint())
		b.Digest.MessagesDuped = int64(d.Uvarint())
	}
	if version >= versionRecover {
		if n := d.Count(maxFaults, "checkpoint"); n > 0 {
			b.Checkpoints = make([]uint64, n)
			for i := range b.Checkpoints {
				b.Checkpoints[i] = d.U64()
			}
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if b.Digest.RunErr > RunOtherErr {
		return nil, fmt.Errorf("%w: unknown run-error code %d", frame.ErrMalformed, b.Digest.RunErr)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Save encodes the bundle to a file.
func Save(b *Bundle, path string) error {
	data, err := Encode(b)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads and decodes a bundle file.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	b, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("incident: %s: %w", filepath.Base(path), err)
	}
	return b, nil
}

// BundleExt is the corpus file extension.
const BundleExt = ".bundle"

// LoadDir loads every *.bundle file in a directory, sorted by filename so
// corpus iteration order is deterministic.
func LoadDir(dir string) ([]*Bundle, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), BundleExt) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	out := make([]*Bundle, 0, len(names))
	for _, name := range names {
		b, err := Load(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
