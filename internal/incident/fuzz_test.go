package incident

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// reframe re-seals data with bundleFormat's CRC in place of its trailer, so
// a fuzzed mutation reaches the field decoder instead of stopping at the
// checksum. It returns nil for input too short to carry a header and
// trailer.
func reframe(data []byte) []byte {
	if len(data) < 6+4 {
		return nil
	}
	return bundleFormat.Seal(append([]byte(nil), data[:len(data)-4]...))
}

// FuzzDecode feeds Decode arbitrary bytes, seeded with the committed
// corpus and the codec tests' bundle. Decode must never panic, every error
// must wrap frame.ErrMalformed (which ErrTruncated and ErrCorrupt wrap) or
// frame.ErrVersion, and a bundle that decodes must re-encode and decode back to
// an equal bundle. Each input is decoded as given and once more with its
// checksum repaired. `make fuzz-incident` runs it; findings land under
// testdata/fuzz/FuzzDecode/.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(corpusDir(), "*"+BundleExt))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus bundles under %s (err %v)", corpusDir(), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	sample, err := Encode(sampleBundle())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	skewed := append([]byte(nil), sample...)
	binary.LittleEndian.PutUint16(skewed[4:6], Version+1)
	f.Add(skewed)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if fixed := reframe(data); fixed != nil {
			checkDecode(t, fixed)
		}
	})
}

// checkDecode applies FuzzDecode's oracle to one input.
func checkDecode(t *testing.T, data []byte) {
	b, err := Decode(data)
	if err != nil {
		if !errors.Is(err, frame.ErrMalformed) && !errors.Is(err, frame.ErrVersion) {
			t.Fatalf("Decode error %v wraps no sentinel", err)
		}
		return
	}
	enc, err := Encode(b)
	if err != nil {
		t.Fatalf("decoded bundle does not re-encode: %v", err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded bundle does not decode: %v", err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Fatalf("round trip changed the bundle:\n  decoded: %+v\n  again:   %+v", b, back)
	}
}
