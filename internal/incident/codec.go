package incident

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/sim"
)

// The wire layout is deliberately boring: a 4-byte magic, a little-endian
// uint16 version, a varint-packed payload, and a CRC32 (IEEE) trailer over
// the payload. Counts and times are uvarints (delays are small positive
// integers, so the dense log packs to ~1-2 bytes per send), floats are
// IEEE-754 bit patterns, and the seed is a zigzag varint. Decode is
// strictly bounds-checked and capped, so a truncated, corrupted, or
// hostile file fails with a wrapped sentinel error — never a panic or an
// absurd allocation.

var bundleMagic = [4]byte{'A', 'A', 'I', 'B'}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvar(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) ivar(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.uvar(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

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
		return nil, fmt.Errorf("%w: name or scenario too long", ErrMalformed)
	}
	if len(b.Delays) > maxSends {
		return nil, fmt.Errorf("%w: %d sends exceed cap", ErrMalformed, len(b.Delays))
	}
	version := uint16(1)
	if b.fated() {
		version = versionFated
	}
	if b.recovered() {
		version = versionRecover
	}
	e := &encoder{buf: make([]byte, 0, 64+8*len(b.Inputs)+3*len(b.Delays)+4*len(b.SendSums))}
	e.str(b.Name)
	e.str(b.Scenario)
	e.str(b.Protocol)
	var flags uint8
	if b.Adaptive {
		flags |= 1
	}
	if b.Reliable {
		flags |= 2
	}
	e.u8(flags)
	e.f64(b.Eps)
	e.f64(b.Lo)
	e.f64(b.Hi)
	e.uvar(uint64(b.ExtraRounds))
	e.uvar(uint64(b.SyncRoundTicks))
	e.ivar(b.Seed)
	e.uvar(uint64(b.MaxEvents))
	e.uvar(uint64(len(b.Inputs)))
	for _, v := range b.Inputs {
		e.f64(v)
	}
	e.uvar(uint64(len(b.Crashes)))
	for _, c := range b.Crashes {
		e.uvar(uint64(c.Party))
		e.uvar(uint64(c.AfterSends))
	}
	e.uvar(uint64(len(b.Byz)))
	for _, z := range b.Byz {
		e.uvar(uint64(z.Party))
		e.str(z.Name)
	}
	e.uvar(uint64(len(b.Delays)))
	for _, d := range b.Delays {
		e.uvar(uint64(d))
	}
	e.uvar(uint64(len(b.SendSums)))
	for _, s := range b.SendSums {
		e.u32(s)
	}
	d := &b.Digest
	e.uvar(uint64(len(d.Decisions)))
	for _, dec := range d.Decisions {
		e.uvar(uint64(dec.Party))
		e.f64(dec.Value)
		e.uvar(uint64(dec.At))
	}
	e.uvar(uint64(d.FinishTime))
	e.uvar(uint64(d.MaxHonestDelay))
	e.uvar(uint64(d.MessagesSent))
	e.uvar(uint64(d.MessagesDelivered))
	e.uvar(uint64(d.BytesSent))
	e.uvar(uint64(d.Deliveries))
	e.u64(d.DeliveryHash)
	e.u8(d.RunErr)
	e.uvar(uint64(d.ProtoErrs))
	if version >= versionFated {
		e.uvar(uint64(len(b.Drops)))
		for _, seq := range b.Drops {
			e.uvar(seq)
		}
		e.uvar(uint64(len(b.Dups)))
		for _, dup := range b.Dups {
			e.uvar(dup.Seq)
			e.uvar(uint64(dup.Extra))
		}
		e.uvar(uint64(d.MessagesDropped))
		e.uvar(uint64(d.MessagesDuped))
	}
	if version >= versionRecover {
		e.uvar(uint64(len(b.Checkpoints)))
		for _, ck := range b.Checkpoints {
			e.u64(ck)
		}
	}

	out := make([]byte, 0, 6+len(e.buf)+4)
	out = append(out, bundleMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = append(out, e.buf...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(e.buf))
	return out, nil
}

// decoder is a bounds-checked cursor over the payload. Every read method
// records the first error and turns subsequent reads into no-ops, so decode
// logic stays linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) uvar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) ivar() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.uvar()
	if n > maxStringLen {
		d.fail(fmt.Errorf("%w: string length %d exceeds cap", ErrMalformed, n))
		return ""
	}
	return string(d.take(int(n)))
}

// count reads a length prefix and enforces a cap. Every element takes at
// least one payload byte, so a count beyond the bytes left is truncation,
// rejected before the caller allocates for it.
func (d *decoder) count(cap uint64, what string) int {
	n := d.uvar()
	if n > cap {
		d.fail(fmt.Errorf("%w: %s count %d exceeds cap %d", ErrMalformed, what, n, cap))
		return 0
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(fmt.Errorf("%w: %s count %d exceeds the %d bytes left", ErrTruncated, what, n, len(d.buf)-d.off))
		return 0
	}
	return int(n)
}

// intField reads a uvarint that must fit a non-negative int.
func (d *decoder) intField(what string) int {
	v := d.uvar()
	if v > math.MaxInt32 {
		d.fail(fmt.Errorf("%w: %s %d out of range", ErrMalformed, what, v))
		return 0
	}
	return int(v)
}

// timeField reads a uvarint sim.Time.
func (d *decoder) timeField(what string) sim.Time {
	v := d.uvar()
	if v > uint64(math.MaxInt64) {
		d.fail(fmt.Errorf("%w: %s %d out of range", ErrMalformed, what, v))
		return 0
	}
	return sim.Time(v)
}

// Decode parses and validates a serialized bundle. Malformed input fails
// with an error wrapping ErrMalformed (ErrTruncated/ErrCorrupt for the
// specific cases); an unsupported format version fails with ErrVersion.
func Decode(data []byte) (*Bundle, error) {
	if len(data) < 6+4 {
		return nil, ErrTruncated
	}
	if [4]byte(data[:4]) != bundleMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version < 1 || version > Version {
		return nil, fmt.Errorf("%w: got version %d, support 1..%d", ErrVersion, version, Version)
	}
	payload := data[6 : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, ErrCorrupt
	}

	d := &decoder{buf: payload}
	b := &Bundle{}
	b.Name = d.str()
	b.Scenario = d.str()
	b.Protocol = d.str()
	flags := d.u8()
	knownFlags := uint8(1)
	if version >= versionFated {
		knownFlags |= 2
	}
	if flags&^knownFlags != 0 {
		d.fail(fmt.Errorf("%w: unknown flag bits %#x", ErrMalformed, flags))
	}
	b.Adaptive = flags&1 != 0
	b.Reliable = flags&2 != 0
	b.Eps = d.f64()
	b.Lo = d.f64()
	b.Hi = d.f64()
	b.ExtraRounds = d.intField("extra rounds")
	b.SyncRoundTicks = d.timeField("sync round ticks")
	b.Seed = d.ivar()
	b.MaxEvents = d.intField("event budget")
	if n := d.count(maxInputs, "input"); d.err == nil && n > 0 {
		b.Inputs = make([]float64, n)
		for i := range b.Inputs {
			b.Inputs[i] = d.f64()
		}
	}
	if n := d.count(maxFaults, "crash"); d.err == nil && n > 0 {
		b.Crashes = make([]sim.CrashPlan, n)
		for i := range b.Crashes {
			b.Crashes[i] = sim.CrashPlan{
				Party:      sim.PartyID(d.intField("crash party")),
				AfterSends: d.intField("crash send budget"),
			}
		}
	}
	if n := d.count(maxFaults, "byzantine"); d.err == nil && n > 0 {
		b.Byz = make([]harness.ByzRef, n)
		for i := range b.Byz {
			b.Byz[i] = harness.ByzRef{Party: sim.PartyID(d.intField("byzantine party")), Name: d.str()}
		}
	}
	if n := d.count(maxSends, "delay"); d.err == nil && n > 0 {
		b.Delays = make([]sim.Time, n)
		for i := range b.Delays {
			b.Delays[i] = d.timeField("delay")
		}
	}
	if n := d.count(maxSends, "send sum"); d.err == nil && n > 0 {
		b.SendSums = make([]uint32, n)
		for i := range b.SendSums {
			b.SendSums[i] = d.u32()
		}
	}
	if n := d.count(maxDecisions, "decision"); d.err == nil && n > 0 {
		b.Digest.Decisions = make([]Decision, n)
		for i := range b.Digest.Decisions {
			b.Digest.Decisions[i] = Decision{
				Party: sim.PartyID(d.intField("decision party")),
				Value: d.f64(),
				At:    d.timeField("decision time"),
			}
		}
	}
	b.Digest.FinishTime = d.timeField("finish time")
	b.Digest.MaxHonestDelay = d.timeField("max honest delay")
	b.Digest.MessagesSent = int64(d.uvar())
	b.Digest.MessagesDelivered = int64(d.uvar())
	b.Digest.BytesSent = int64(d.uvar())
	b.Digest.Deliveries = int64(d.uvar())
	b.Digest.DeliveryHash = d.u64()
	b.Digest.RunErr = d.u8()
	b.Digest.ProtoErrs = int64(d.uvar())
	if version >= versionFated {
		if n := d.count(maxSends, "drop"); d.err == nil && n > 0 {
			b.Drops = make([]uint64, n)
			for i := range b.Drops {
				b.Drops[i] = d.uvar()
			}
		}
		if n := d.count(maxSends, "dup"); d.err == nil && n > 0 {
			b.Dups = make([]Dup, n)
			for i := range b.Dups {
				b.Dups[i] = Dup{Seq: d.uvar(), Extra: d.timeField("dup extra delay")}
			}
		}
		b.Digest.MessagesDropped = int64(d.uvar())
		b.Digest.MessagesDuped = int64(d.uvar())
	}
	if version >= versionRecover {
		if n := d.count(maxFaults, "checkpoint"); d.err == nil && n > 0 {
			b.Checkpoints = make([]uint64, n)
			for i := range b.Checkpoints {
				b.Checkpoints[i] = d.u64()
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(payload)-d.off)
	}
	if b.Digest.RunErr > RunOtherErr {
		return nil, fmt.Errorf("%w: unknown run-error code %d", ErrMalformed, b.Digest.RunErr)
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
