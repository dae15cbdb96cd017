package frame

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// The two CRC spans, in the shapes the snapshot and bundle formats use.
var (
	whole = Format{Magic: "TSTW", Version: 1, SealHeader: true}
	body  = Format{Magic: "TSTB", Version: 3}
)

// appendSample appends one of every field writer's output.
func appendSample(buf []byte) []byte {
	buf = AppendUvarint(buf, 300)
	buf = AppendVarint(buf, -1)
	buf = AppendBool(buf, true)
	buf = AppendF64(buf, math.Pi)
	buf = AppendWords(buf, []uint64{0xDEAD, 0, ^uint64(0)})
	buf = append(buf, 0x7f)
	buf = AppendU32(buf, 0xCAFEF00D)
	buf = AppendU64(buf, 1<<63|5)
	buf = AppendStr(buf, "incident")
	return append(AppendUvarint(buf, 2), 0, 0) // a Count prefix and its elements
}

// buildSample encodes one of every field and seals it.
func buildSample(f Format) []byte {
	return f.Seal(appendSample(f.Begin(nil, 1)))
}

func TestRoundTrip(t *testing.T) {
	for _, f := range []Format{whole, body} {
		d, version, err := f.Open(buildSample(f))
		if err != nil {
			t.Fatal(err)
		}
		if version != 1 {
			t.Errorf("%s: version = %d", f.Magic, version)
		}
		if v := d.Uvarint(); v != 300 {
			t.Errorf("uvarint = %d", v)
		}
		if v := d.Varint(); v != -1 {
			t.Errorf("varint = %d", v)
		}
		if !d.Bool() {
			t.Error("bool = false")
		}
		if v := d.F64(); v != math.Pi {
			t.Errorf("f64 = %v", v)
		}
		words := make([]uint64, 3)
		d.Words(words)
		if words[0] != 0xDEAD || words[2] != ^uint64(0) {
			t.Errorf("words = %v", words)
		}
		if v := d.U8(); v != 0x7f {
			t.Errorf("u8 = %#x", v)
		}
		if v := d.U32(); v != 0xCAFEF00D {
			t.Errorf("u32 = %#x", v)
		}
		if v := d.U64(); v != 1<<63|5 {
			t.Errorf("u64 = %#x", v)
		}
		if v := d.Str(8); v != "incident" {
			t.Errorf("str = %q", v)
		}
		if n := d.Count(2, "element"); n != 2 {
			t.Errorf("count = %d", n)
		}
		d.U8()
		d.U8()
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCRCSpan pins what each span covers: a SealHeader frame's CRC
// changes with its version, a body-only frame's does not.
func TestCRCSpan(t *testing.T) {
	crc := func(f Format, version uint16) []byte {
		data := f.Seal(AppendUvarint(f.Begin(nil, version), 7))
		return data[len(data)-4:]
	}
	if bytes.Equal(crc(whole, 1), crc(whole, 2)) {
		t.Error("SealHeader CRC ignores the version")
	}
	if !bytes.Equal(crc(body, 1), crc(body, 2)) {
		t.Error("body-only CRC covers the version")
	}
}

func TestBufferReuse(t *testing.T) {
	// A recycled buffer (cap from a previous frame) must produce the
	// identical encoding.
	first := buildSample(whole)
	reused := whole.Seal(appendSample(whole.Begin(first[:0], 1)))
	if !bytes.Equal(reused, buildSample(whole)) {
		t.Error("reused buffer produced a different encoding")
	}
}

func TestTruncation(t *testing.T) {
	for _, f := range []Format{whole, body} {
		data := buildSample(f)
		for cut := 0; cut < len(data); cut++ {
			if _, _, err := f.Open(data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d accepted", f.Magic, cut)
			} else if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: truncation at %d: %v not wrapped in ErrMalformed", f.Magic, cut, err)
			}
		}
	}
}

func TestCorruption(t *testing.T) {
	for _, f := range []Format{whole, body} {
		data := buildSample(f)
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, _, err := f.Open(bad); err == nil {
				t.Fatalf("%s: byte flip at %d accepted", f.Magic, i)
			} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: byte flip at %d: %v wraps no sentinel", f.Magic, i, err)
			}
		}
	}
}

func TestVersionSkew(t *testing.T) {
	for _, f := range []Format{whole, body} {
		for _, v := range []uint16{0, f.Version + 1} {
			_, _, err := f.Open(f.Seal(appendSample(f.Begin(nil, v))))
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: version %d: %v", f.Magic, v, err)
			}
			if errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: version skew must be distinguishable from malformed input", f.Magic)
			}
		}
	}
	if _, _, err := body.Open(body.Seal(body.Begin(nil, body.Version))); err != nil {
		t.Fatalf("newest version rejected: %v", err)
	}
}

func TestWordShapeMismatch(t *testing.T) {
	d, _, err := whole.Open(whole.Seal(AppendWords(whole.Begin(nil, 1), []uint64{1, 2})))
	if err != nil {
		t.Fatal(err)
	}
	d.Words(make([]uint64, 3))
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Errorf("shape mismatch: %v", d.Err())
	}
}

func TestErrorLatching(t *testing.T) {
	d, _, err := whole.Open(whole.Seal(AppendUvarint(whole.Begin(nil, 1), 7)))
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Uvarint()
	_ = d.F64() // runs past the body: must latch, not panic
	first := d.Err()
	_ = d.Varint()
	_ = d.Str(10)
	d.Fail(errors.New("later"))
	if !errors.Is(first, ErrTruncated) || d.Err() != first {
		t.Errorf("overread latched %v, then %v", first, d.Err())
	}
	if err := d.Done(); err != first {
		t.Errorf("Done = %v after overread", err)
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	d, _, err := whole.Open(whole.Seal(AppendUvarint(AppendUvarint(whole.Begin(nil, 1), 1), 2)))
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Uvarint()
	if err := d.Done(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing body: %v", err)
	}
}

// TestCaps pins that Str and Count enforce their caps as malformed input,
// and that a Count beyond the bytes left is truncation.
func TestCaps(t *testing.T) {
	open := func(buf []byte) Dec {
		d, _, err := body.Open(body.Seal(buf))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open(AppendStr(body.Begin(nil, 1), "toolong"))
	if d.Str(6); !errors.Is(d.Err(), ErrMalformed) || errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("string over cap: %v", d.Err())
	}
	d = open(AppendUvarint(body.Begin(nil, 1), 9))
	if d.Count(8, "x"); !errors.Is(d.Err(), ErrMalformed) || errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("count over cap: %v", d.Err())
	}
	d = open(append(AppendUvarint(body.Begin(nil, 1), 3), 0, 0))
	if d.Count(8, "x"); !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("count past the bytes left: %v", d.Err())
	}
	d = open(append(body.Begin(nil, 1), 2))
	if d.Bool(); !errors.Is(d.Err(), ErrMalformed) {
		t.Errorf("bool byte 2: %v", d.Err())
	}
}

func TestDigest(t *testing.T) {
	a, b := buildSample(whole), whole.Seal(AppendUvarint(whole.Begin(nil, 1), 1))
	if Digest(a) == Digest(b) {
		t.Error("distinct frames share a digest")
	}
	if Digest(a) != Digest(buildSample(whole)) {
		t.Error("digest not deterministic")
	}
	if Digest(nil) == 0 {
		t.Error("digest zero")
	}
}
