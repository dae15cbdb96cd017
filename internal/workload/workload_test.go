package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// parseRoundTripSpecs are canonical specs; FuzzParse seeds from these
// tables too.
var parseRoundTripSpecs = []string{
	"const:40",
	"poisson:12.5",
	"poisson:1e06",
	"diurnal:2000:10:80",
	"burst:20:16:500",
	"poisson:40+lognormal:4:0.5",
	"poisson:40+bimodal:20:400:0.1",
	"const:8+pareto:30:1.5",
	"poisson:40+lognormal:4:0.5+cohort:web:0.75:300:1+cohort:batch:0.25:1200:0",
	"poisson:40+cohort:web:1:300:2+outagewin:800:600+flapstorm:2000:800",
}

func TestParseRoundTrip(t *testing.T) {
	for _, raw := range parseRoundTripSpecs {
		s, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if got := s.String(); got != raw {
			t.Errorf("round trip %q -> %q", raw, got)
		}
		again, err := Parse(s.String())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Errorf("re-parse of %q drifted: %+v vs %+v (%v)", raw, again, s, err)
		}
	}
}

// parseErrorCases pairs rejected specs with what their errors must say.
var parseErrorCases = []struct {
	raw  string
	want []string
}{
	{"warp:4", []string{`token 1 "warp:4"`, `(char 0)`, "unknown arrival process"}},
	{"poisson:x", []string{`token 1 "poisson:x"`, `(char 0)`, `rate "x": not a number`}},
	{"poisson:40+gremlin:1", []string{`token 2 "gremlin:1"`, `(char 11)`, `unknown token "gremlin"`}},
	{"poisson:40+lognormal:4", []string{`token 2 "lognormal:4"`, `(char 11)`, "wants 2 arguments"}},
	{"poisson:40+lognormal:4:z", []string{`token 2 "lognormal:4:z"`, `(char 11)`, `sigma "z": not a number`}},
	{"const:5+pareto:30:1.5+bimodal:1:2:0.5", []string{`token 3 "bimodal:1:2:0.5"`, `(char 22)`, "second latency model"}},
	{"poisson:40+cohort::1:300", []string{`token 2`, `(char 11)`, "empty cohort name"}},
	{"poisson:40+cohort:a:1:0", []string{`cohort a deadline 0, need >= 1`}},
	{"burst:20:0:500", []string{`burst size 0`}},
	{"poisson:40+outagewin:5", []string{`token 2 "outagewin:5"`, `(char 11)`, "wants 2 arguments"}},
	{"poisson:40+flapstorm:-1:50", []string{"disturbance window"}},
}

// TestParseErrorMessages pins the satellite contract: every parse error
// names the offending token, its index, and its byte position in the raw
// spec — not just a wrapped sentinel.
func TestParseErrorMessages(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := Parse(tc.raw)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.raw)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error %q missing %q", tc.raw, err, want)
			}
		}
	}
}

// parseRejectSpecs maps specs Parse must reject to the reason.
var parseRejectSpecs = map[string]string{
	"":                        "empty spec",
	"poisson:0":               "zero rate",
	"poisson:-3":              "negative rate",
	"diurnal:0:5:10":          "zero period",
	"diurnal:100:10:5":        "peak below trough",
	"pareto:30:1+poisson:4":   "latency token first",
	"const:5+pareto:30:0.9":   "pareto alpha <= 1 (infinite mean)",
	"const:5+bimodal:9:3:0.5": "bimodal slow < fast",
	"poisson:4+cohort:a:0:10": "zero cohort weight",
	"const:5+lognormal:4:NaN": "NaN sigma",
	"diurnal:10:1:Inf":        "infinite peak",
}

func TestParseRejects(t *testing.T) {
	for raw, why := range parseRejectSpecs {
		if _, err := Parse(raw); err == nil {
			t.Errorf("Parse(%q) accepted (%s)", raw, why)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := MustParse("poisson:40+lognormal:4:0.5+cohort:web:0.75:300:1+cohort:batch:0.25:1200:0+flapstorm:500:400")
	a := s.Generate(7, 4000)
	b := s.Generate(7, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different request streams")
	}
	c := s.Generate(8, 4000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
	if len(a) == 0 {
		t.Fatal("no requests generated")
	}
	last := int64(-1)
	windowed := 0
	cohorts := map[int]int{}
	for i, r := range a {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < last {
			t.Fatalf("arrivals out of order at %d: %d < %d", i, r.Arrival, last)
		}
		last = r.Arrival
		if r.Arrival >= 4000 {
			t.Fatalf("arrival %d past horizon", r.Arrival)
		}
		if r.Service < 1 {
			t.Fatalf("service %d < 1", r.Service)
		}
		if r.Window >= 0 {
			windowed++
			if r.Arrival < 500 || r.Arrival >= 900 {
				t.Fatalf("request at %d tagged with window [500, 900)", r.Arrival)
			}
		} else if r.Arrival >= 500 && r.Arrival < 900 {
			t.Fatalf("request at %d missed its window", r.Arrival)
		}
		cohorts[r.Cohort]++
		want := s.Cohorts[r.Cohort]
		if r.Deadline != want.Deadline || r.Priority != want.Priority {
			t.Fatalf("request %d cohort fields drifted", i)
		}
	}
	if windowed == 0 {
		t.Error("no requests landed in the disturbance window")
	}
	if len(cohorts) != 2 {
		t.Errorf("cohort draw used %d of 2 cohorts", len(cohorts))
	}
}

func TestGenerateRates(t *testing.T) {
	// A const workload at 40/kilotick over 10 kiloticks yields ~400
	// requests; poisson the same in expectation.
	for _, raw := range []string{"const:40", "poisson:40"} {
		s := MustParse(raw)
		n := len(s.Generate(3, 10_000))
		if n < 300 || n > 500 {
			t.Errorf("%s: %d requests over 10 kiloticks, want ~400", raw, n)
		}
	}
	// Burst adds size-S spikes on top of the base stream.
	s := MustParse("burst:10:25:1000")
	reqs := s.Generate(3, 10_000)
	// ~100 base + 9..10 bursts of 25.
	if n := len(reqs); n < 300 || n > 400 {
		t.Errorf("burst: %d requests, want ~325-350", n)
	}
	spike := 0
	for _, r := range reqs {
		if r.Arrival == 3000 {
			spike++
		}
	}
	if spike < 25 {
		t.Errorf("burst at t=3000 has %d arrivals, want >= 25", spike)
	}
	// Diurnal swings between trough and peak: the busiest period half
	// must carry more than the quietest.
	s = MustParse("diurnal:2000:5:80")
	reqs = s.Generate(3, 10_000)
	if n := len(reqs); n < 250 || n > 600 {
		t.Errorf("diurnal: %d requests, want mean-rate ~425", n)
	}
}

func TestGenerateNAndScale(t *testing.T) {
	s := MustParse("poisson:20+lognormal:4:0.5")
	reqs := s.GenerateN(11, 50)
	if len(reqs) != 50 {
		t.Fatalf("GenerateN returned %d requests", len(reqs))
	}
	base := len(s.Generate(5, 20_000))
	doubled := len(s.Scale(2).Generate(5, 20_000))
	if doubled < base*3/2 {
		t.Errorf("Scale(2): %d requests vs base %d, want ~2x", doubled, base)
	}
	if s.Scale(2).Arrival.Rate != 40 {
		t.Errorf("Scale(2) rate = %v", s.Scale(2).Arrival.Rate)
	}
}

func TestLatencyMeans(t *testing.T) {
	cases := []struct {
		l    Latency
		want float64
	}{
		{Latency{Kind: LatLognormal, A: 4, B: 0.5}, math.Exp(4.125)},
		{Latency{Kind: LatBimodal, A: 20, B: 400, C: 0.1}, 58},
		{Latency{Kind: LatPareto, A: 30, B: 1.5}, 90},
	}
	for _, tc := range cases {
		if got := tc.l.Mean(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("mean = %v, want %v", got, tc.want)
		}
	}
	// Empirical means should track the analytic ones loosely.
	s := Spec{Arrival: Arrival{Kind: ArrivalConst, Rate: 100}, Latency: Latency{Kind: LatPareto, A: 30, B: 1.5}}
	reqs := s.Generate(1, 100_000)
	var sum float64
	for _, r := range reqs {
		sum += float64(r.Service)
	}
	mean := sum / float64(len(reqs))
	if mean < 45 || mean > 180 {
		t.Errorf("empirical pareto mean %v far from analytic 90", mean)
	}
	if sat := s.SaturationRate(4); math.Abs(sat-4000.0/90) > 1e-9 {
		t.Errorf("saturation rate %v", sat)
	}
}
