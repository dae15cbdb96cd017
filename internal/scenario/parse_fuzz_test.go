package scenario

import "testing"

// FuzzParse feeds arbitrary strings to Parse, seeded from the parse table
// tests. Nothing may panic, and any input that parses must pass Validate,
// resolve when its t is explicit, and render to a canonical String() that
// parses again to the same rendering. A failing
// input is saved under testdata/fuzz/FuzzParse/, where plain `go test`
// replays it from then on. Run with `make fuzz-parse`.
func FuzzParse(f *testing.F) {
	for _, raw := range parseRoundTripSpecs {
		f.Add(raw)
	}
	for _, raw := range recoverRoundTripSpecs {
		f.Add(raw)
	}
	for raw := range parseRejectSpecs {
		f.Add(raw)
	}
	for raw := range recoverRejectSpecs {
		f.Add(raw)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := Parse(raw)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a spec Validate rejects: %v", raw, err)
		}
		if s.T != TUnset {
			if _, err := s.Resolve(); err != nil {
				t.Fatalf("Parse(%q) accepted a spec Resolve rejects: %v", raw, err)
			}
		}
		canon := s.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", raw, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) renders as %q, which re-renders as %q", raw, canon, got)
		}
	})
}
