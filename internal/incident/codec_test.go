package incident

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/sim"
)

// sampleBundle is a small but fully populated bundle for codec tests.
func sampleBundle() *Bundle {
	return &Bundle{
		Name: "sample",
		Recipe: harness.Recipe{
			Scenario:    "random/n=5,t=2",
			Protocol:    core.ProtoCrash.Token(),
			Eps:         1e-3,
			Lo:          0,
			Hi:          1,
			ExtraRounds: 1,
			Seed:        -12345,
			MaxEvents:   5000,
			Inputs:      []float64{0, 0.25, 0.5, 0.75, 1},
			Overrides: harness.Overrides{
				Crashes: []sim.CrashPlan{{Party: 0, AfterSends: 7}},
				Byz:     nil,
			},
		},
		Delays:   []sim.Time{3, 1, 0, 9, 2},
		SendSums: []uint32{11, 22, 0, 44, 55},
		Digest: Digest{
			Decisions:         []Decision{{Party: 1, Value: 0.5, At: 40}, {Party: 2, Value: 0.5, At: 41}},
			FinishTime:        41,
			MaxHonestDelay:    9,
			MessagesSent:      120,
			MessagesDelivered: 115,
			BytesSent:         2040,
			Deliveries:        115,
			DeliveryHash:      0xdeadbeefcafef00d,
			RunErr:            RunOK,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := sampleBundle()
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", b, got)
	}
	// Encoding is deterministic.
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Encode(sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail cleanly — truncation, checksum, or
	// malformed — and never panic. (A short prefix fails the CRC before
	// field parsing; what matters is the wrapped sentinel.)
	for cut := 0; cut < len(data); cut++ {
		_, err := Decode(data[:cut])
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		if !errors.Is(err, frame.ErrMalformed) && !errors.Is(err, frame.ErrVersion) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap a sentinel", cut, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the payload: the checksum must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := Decode(bad); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("corrupted payload: got %v, want frame.ErrCorrupt", err)
	}
	// frame.ErrCorrupt wraps frame.ErrMalformed.
	if _, err := Decode(bad); !errors.Is(err, frame.ErrMalformed) {
		t.Fatalf("frame.ErrCorrupt does not wrap frame.ErrMalformed: %v", err)
	}
	// Bad magic.
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, frame.ErrMalformed) {
		t.Fatalf("bad magic: got %v", err)
	}
}

// TestDecodeRejectsHugeCounts pins that a length prefix larger than the
// bytes left fails as truncation before Decode allocates for it: a payload
// that claims the cap's 2^26 delays and ends there must not cost 512 MB.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	b := sampleBundle()
	buf := bundleFormat.Begin(nil, 1)
	buf = frame.AppendStr(buf, b.Name)
	buf = frame.AppendStr(buf, b.Scenario)
	buf = frame.AppendStr(buf, b.Protocol)
	buf = append(buf, 0)
	buf = frame.AppendF64(buf, b.Eps)
	buf = frame.AppendF64(buf, b.Lo)
	buf = frame.AppendF64(buf, b.Hi)
	buf = frame.AppendUvarint(buf, 0)
	buf = frame.AppendUvarint(buf, 0)
	buf = frame.AppendVarint(buf, b.Seed)
	buf = frame.AppendUvarint(buf, 0)
	buf = frame.AppendUvarint(buf, uint64(len(b.Inputs)))
	for _, v := range b.Inputs {
		buf = frame.AppendF64(buf, v)
	}
	buf = frame.AppendUvarint(buf, 0)
	buf = frame.AppendUvarint(buf, 0)
	buf = frame.AppendUvarint(buf, maxSends)
	data := bundleFormat.Seal(buf)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("Decode error %v, want frame.ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Decode allocated %d bytes for a %d-byte bundle", grew, len(data))
	}
}

// TestDecodeRejectsRetiredSlot pins the slot after ExtraRounds, once the
// removed lock-step protocol's round length: Encode writes 0 there and
// Decode rejects anything else, so every bundle still has one encoding.
func TestDecodeRejectsRetiredSlot(t *testing.T) {
	b := sampleBundle()
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	prefix := bundleFormat.Begin(nil, 1)
	prefix = frame.AppendStr(prefix, b.Name)
	prefix = frame.AppendStr(prefix, b.Scenario)
	prefix = frame.AppendStr(prefix, b.Protocol)
	prefix = append(prefix, 0)
	prefix = frame.AppendF64(prefix, b.Eps)
	prefix = frame.AppendF64(prefix, b.Lo)
	prefix = frame.AppendF64(prefix, b.Hi)
	prefix = frame.AppendUvarint(prefix, uint64(b.ExtraRounds))
	at := len(prefix)
	if data[at] != 0 {
		t.Fatalf("Encode wrote %#x in the retired slot, want 0", data[at])
	}
	body := append([]byte(nil), data[:len(data)-4]...)
	body[at] = 1
	if _, err := Decode(bundleFormat.Seal(body)); !errors.Is(err, frame.ErrMalformed) {
		t.Fatalf("retired slot set to 1: got %v, want frame.ErrMalformed", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data, err := Encode(sampleBundle())
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(skewed[4:6], Version+1)
	_, err = Decode(skewed)
	if !errors.Is(err, frame.ErrVersion) {
		t.Fatalf("version skew: got %v, want frame.ErrVersion", err)
	}
	if errors.Is(err, frame.ErrMalformed) {
		t.Fatal("version skew must be distinguishable from malformed input")
	}
}

func TestDecodeRejectsSemanticNonsense(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Bundle)
	}{
		{"unknown protocol", func(b *Bundle) { b.Protocol = "paxos" }},
		{"unknown protocol sync", func(b *Bundle) { b.Protocol = "sync" }},
		{"unparseable scenario", func(b *Bundle) { b.Scenario = "n=???" }},
		{"scenario without t", func(b *Bundle) { b.Scenario = "random/n=5" }},
		{"inputs vs n", func(b *Bundle) { b.Inputs = b.Inputs[:3] }},
		{"crash party out of range", func(b *Bundle) { b.Overrides.Crashes[0].Party = 99 }},
		{"duplicate fault", func(b *Bundle) {
			b.Overrides.Crashes = append(b.Overrides.Crashes, sim.CrashPlan{Party: 0, AfterSends: 1})
		}},
		{"faults exceed t", func(b *Bundle) {
			b.Overrides.Crashes = append(b.Overrides.Crashes,
				sim.CrashPlan{Party: 1, AfterSends: 1}, sim.CrashPlan{Party: 2, AfterSends: 1})
		}},
		{"unknown behavior", func(b *Bundle) { b.Overrides.Byz = []harness.ByzRef{{Party: 1, Name: "gremlin"}} }},
		{"fault tokens plus overrides", func(b *Bundle) { b.Scenario = "random+crash/n=5,t=2" }},
		{"sums/delays length skew", func(b *Bundle) { b.SendSums = b.SendSums[:2] }},
		{"delay above cap", func(b *Bundle) { b.Delays[0] = sim.MaxDelayCap + 1 }},
		{"bad eps", func(b *Bundle) { b.Eps = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := sampleBundle()
			tc.mutate(b)
			// The encoder itself validates; build bytes from a valid bundle
			// when the mutation only breaks semantics the encoder checks.
			if _, err := Encode(b); !errors.Is(err, frame.ErrMalformed) {
				t.Fatalf("Encode accepted %s (err %v)", tc.name, err)
			}
		})
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	b := sampleBundle()
	if err := Save(b, dir+"/a"+BundleExt); err != nil {
		t.Fatal(err)
	}
	b2 := sampleBundle()
	b2.Name = "second"
	if err := Save(b2, dir+"/b"+BundleExt); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "sample" || got[1].Name != "second" {
		t.Fatalf("LoadDir got %d bundles", len(got))
	}
	if _, err := Load(dir + "/missing" + BundleExt); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}
