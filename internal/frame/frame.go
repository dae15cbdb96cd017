// Package frame is the repository's one binary envelope and field codec.
// Both on-disk formats use it: the incident bundle (internal/incident) and
// the crash-recovery snapshot that core.Snapshotter parties write. A frame
// is a 4-byte magic, a little-endian u16 version, a body of fields, and a
// CRC32 (IEEE) trailer.
//
// Each format is one Format value owned by the package that writes it.
// The one thing the two formats differ in, the span the CRC covers, is a
// field of that value, fixed by the committed bytes: snapshots checksum
// header and body, bundles the body alone.
//
// Fields are written append-style over a caller-owned buffer, so a
// recycled buffer encodes without allocating. They are read through Dec, a
// bounds-checked cursor that latches its first error and never panics: a
// damaged frame fails with an error wrapping ErrMalformed (ErrTruncated and
// ErrCorrupt wrap it) or ErrVersion.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Format names one on-disk format.
type Format struct {
	// Magic is the frame's leading bytes; it must be exactly four long.
	Magic string
	// Version is the newest version Open accepts; it accepts 1..Version.
	Version uint16
	// SealHeader makes the CRC cover the magic and version as well as the
	// body.
	SealHeader bool
}

// headerLen is magic + u16 version.
const headerLen = 4 + 2

// trailerLen is the CRC32 suffix.
const trailerLen = 4

// maxWords caps a word-array read so a corrupt length field cannot drive a
// giant shape check; shapes in this repo stay far below it.
const maxWords = 1 << 20

// Sentinel decode errors.
var (
	// ErrMalformed indicates a structurally or semantically invalid frame:
	// bad magic, impossible lengths, trailing bytes, or contents its reader
	// rejects. ErrTruncated and ErrCorrupt wrap it.
	ErrMalformed = errors.New("frame: malformed")
	// ErrTruncated wraps ErrMalformed: the frame ends mid-field.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
	// ErrCorrupt wraps ErrMalformed: the CRC does not match.
	ErrCorrupt = fmt.Errorf("%w: checksum mismatch", ErrMalformed)
	// ErrVersion indicates a well-formed header with an unsupported
	// version: the reader is too old or too new for the frame.
	ErrVersion = errors.New("frame: unsupported version")
)

// Begin starts a frame: it appends f's magic and version to buf and
// returns the extended slice. The frame starts at buf[0], so buf is
// normally empty (buf[:0] of a recycled buffer).
func (f Format) Begin(buf []byte, version uint16) []byte {
	// Byte by byte: appending f.Magic... compiles to a memmove call, which
	// measurably slows every warm snapshot.
	buf = append(buf, f.Magic[0], f.Magic[1], f.Magic[2], f.Magic[3])
	return binary.LittleEndian.AppendUint16(buf, version)
}

// Seal appends the CRC32 trailer to a frame that Begin started at buf[0]
// and returns the finished frame.
func (f Format) Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[f.crcFrom():]))
}

// crcFrom is the offset where the CRC span starts.
func (f Format) crcFrom() int {
	if f.SealHeader {
		return 0
	}
	return headerLen
}

// Open verifies a frame's magic, version and CRC and returns a reader
// positioned at the first body field, with the frame's version. The
// reader is returned by value so restore paths, which run on a zero-alloc
// budget, keep it on the stack.
func (f Format) Open(data []byte) (Dec, uint16, error) {
	if len(data) < headerLen+trailerLen {
		return Dec{}, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:4]) != f.Magic {
		return Dec{}, 0, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version == 0 || version > f.Version {
		return Dec{}, 0, fmt.Errorf("%w: %d, support 1..%d", ErrVersion, version, f.Version)
	}
	body := data[:len(data)-trailerLen]
	if crc32.ChecksumIEEE(body[f.crcFrom():]) != binary.LittleEndian.Uint32(data[len(body):]) {
		return Dec{}, 0, ErrCorrupt
	}
	return Dec{data: body, off: headerLen}, version, nil
}

// Digest returns the FNV-1a hash of a finished frame, forced nonzero: the
// compact fingerprint a bundle records per checkpoint so replay can detect
// snapshot divergence without carrying the bytes.
func Digest(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// AppendUvarint appends an unsigned varint field.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends a signed field as a zigzag varint.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendU32 appends a little-endian u32 field.
func AppendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendU64 appends a little-endian u64 field.
func AppendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendF64 appends a float64 field as its IEEE-754 bits.
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendBool appends a one-byte boolean field.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendStr appends a length-prefixed string field.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendWords appends a length-prefixed []uint64 (a bitset's backing or
// any word array).
func AppendWords(buf []byte, words []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Dec is the bounds-checked field reader. Every read latches the first
// error and returns zero values afterwards, so a reader can take a whole
// record and check Err once.
type Dec struct {
	data []byte // the frame without its CRC trailer
	off  int
	err  error
}

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Fail latches err unless an error is already latched: how a reader
// rejects a field whose bytes parse but whose value it cannot accept.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Done returns the latched error, or an error if the body was not fully
// consumed.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing body bytes", ErrMalformed, len(d.data)-d.off)
	}
	return nil
}

// truncated latches truncation unless an error is already latched. It
// stays out of line so the bounds checks that call it inline.
//
//go:noinline
func (d *Dec) truncated(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, d.off)
	}
}

// has reports whether n more body bytes can be read, latching truncation
// if not.
func (d *Dec) has(n int, what string) bool {
	if d.err == nil && n <= len(d.data)-d.off {
		return true
	}
	d.truncated(what)
	return false
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if !d.has(1, "u8") {
		return 0
	}
	d.off++
	return d.data[d.off-1]
}

// U32 reads a little-endian u32 field.
func (d *Dec) U32() uint32 {
	if !d.has(4, "u32") {
		return 0
	}
	d.off += 4
	return binary.LittleEndian.Uint32(d.data[d.off-4:])
}

// U64 reads a little-endian u64 field.
func (d *Dec) U64() uint64 {
	if !d.has(8, "u64") {
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.data[d.off-8:])
}

// F64 reads a float64 field.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a one-byte boolean field; a byte other than 0 or 1 is
// malformed.
func (d *Dec) Bool() bool {
	if !d.has(1, "bool") {
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.Fail(fmt.Errorf("%w: bool byte %d", ErrMalformed, b))
		return false
	}
	return b == 1
}

// Uvarint reads an unsigned varint field.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.truncated("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint field.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.truncated("varint")
		return 0
	}
	d.off += n
	return v
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Dec) Str(max int) string {
	n := d.Uvarint()
	if n > uint64(max) {
		d.Fail(fmt.Errorf("%w: string length %d exceeds cap %d", ErrMalformed, n, max))
		return ""
	}
	if !d.has(int(n), "string") {
		return ""
	}
	d.off += int(n)
	return string(d.data[d.off-int(n) : d.off])
}

// Count reads a length prefix of at most max. Every element takes at
// least one body byte, so a count beyond the bytes left is truncation,
// rejected before the caller allocates for it.
func (d *Dec) Count(max uint64, what string) int {
	n := d.Uvarint()
	if n > max {
		d.Fail(fmt.Errorf("%w: %s count %d exceeds cap %d", ErrMalformed, what, n, max))
		return 0
	}
	if left := len(d.data) - d.off; n > uint64(left) {
		d.Fail(fmt.Errorf("%w: %s count %d exceeds the %d bytes left", ErrTruncated, what, n, left))
		return 0
	}
	return int(n)
}

// Words reads a length-prefixed word array into dst, which must have
// exactly the recorded length: shape is part of the reader's
// configuration, so a mismatch means the frame belongs to a different
// shape and is rejected rather than silently truncated.
func (d *Dec) Words(dst []uint64) {
	ln := d.Uvarint()
	if d.err != nil {
		return
	}
	if ln > maxWords || int(ln) != len(dst) {
		d.Fail(fmt.Errorf("%w: word array length %d, want %d", ErrMalformed, ln, len(dst)))
		return
	}
	if !d.has(8*len(dst), "words") {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	}
}
