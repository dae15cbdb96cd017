// Package workload generates deterministic, seeded request load for the
// serving layer (internal/serve): arrival processes, per-request service
// latency models, client cohorts, and correlated disturbance windows, all
// expressible as one compact parseable spec string — the traffic-shape
// analogue of internal/scenario's adversary specs, so overload sweeps can
// enumerate workload shapes exactly like fault compositions.
//
// Specs have a token string form,
//
//	<arrival>[+<latency>][+cohort:...][+<window>...]
//
// e.g. "poisson:40+lognormal:4:0.5+cohort:web:0.75:300:1+flapstorm:2000:800".
// The first token is the arrival process; the remaining tokens may appear
// in any order and String renders them canonically (latency, cohorts,
// windows). Parse and String round-trip canonical strings exactly, and —
// like scenario.Parse — every parse error names the offending token and
// its byte position in the input, so a sweep over generated specs fails
// with the axis that broke, not just the string.
//
// Rates are in requests per kilotick (1000 virtual ticks); durations,
// deadlines, and window bounds are in ticks. Generation is a pure function
// of (Spec, seed, horizon): arrival times are drawn first from one seeded
// stream, then per-request service and cohort draws follow in arrival
// order, so the same spec and seed always produce byte-identical request
// sequences — the property the deterministic overload sweep (E15) and the
// bench-smoke drift gate ride on.
//
// Arrival processes:
//
//	const:R          evenly spaced arrivals at R per kilotick
//	poisson:R        exponential interarrivals with mean 1000/R ticks
//	diurnal:P:B:K    inhomogeneous Poisson, rate swinging sinusoidally
//	                 between trough B and peak K per kilotick with period
//	                 P ticks (thinning at the peak rate)
//	burst:R:S:E      open-loop bursts: a const base stream at R plus S
//	                 simultaneous arrivals every E ticks
//
// Latency models (modeled intrinsic service cost per instance, in ticks):
//
//	lognormal:M:S    exp(N(M, S)): the classic service-time body
//	bimodal:F:S:P    F ticks with probability 1-P, else S (cache hit/miss)
//	pareto:M:A       M / U^(1/A): heavy tail; requires A > 1 so the mean
//	                 (and thus a saturation rate) exists
//
// Cohorts ("cohort:NAME:WEIGHT:DEADLINE[:PRIO]") partition requests by a
// seeded weighted draw; each cohort carries its own deadline budget and
// shed priority (higher = shed later). Disturbance windows
// ("outagewin:START:LEN", "flapstorm:START:LEN") mark intervals of
// correlated trouble: every request arriving inside a window is tagged
// with it, and the serving layer composes the matching scenario fault axis
// (a regional outage or a flap storm) into those requests' agreement
// instances.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ArrivalKind enumerates the arrival processes.
type ArrivalKind uint8

const (
	ArrivalConst ArrivalKind = iota
	ArrivalPoisson
	ArrivalDiurnal
	ArrivalBurst
)

// Arrival is one arrival process. Rate (and Peak) are requests per
// kilotick; Period is in ticks.
type Arrival struct {
	Kind ArrivalKind
	// Rate is the base rate: the constant rate (const, burst), the mean
	// rate (poisson), or the trough rate (diurnal).
	Rate float64
	// Peak is the diurnal peak rate.
	Peak float64
	// Period is the diurnal period or the burst interval, in ticks.
	Period int64
	// Size is the burst size.
	Size int
}

// LatencyKind enumerates the service-latency models.
type LatencyKind uint8

const (
	LatLognormal LatencyKind = iota
	LatBimodal
	LatPareto
)

// Latency is one service-latency model; A, B, C are the model parameters
// in token order (lognormal: mu, sigma; bimodal: fast, slow, p(slow);
// pareto: scale, alpha).
type Latency struct {
	Kind    LatencyKind
	A, B, C float64
}

// Mean returns the analytic mean service cost in ticks — the quantity
// saturation rates are derived from (capacity = workers / mean).
func (l Latency) Mean() float64 {
	switch l.Kind {
	case LatBimodal:
		return l.A*(1-l.C) + l.B*l.C
	case LatPareto:
		return l.A * l.B / (l.B - 1)
	default: // lognormal
		return math.Exp(l.A + l.B*l.B/2)
	}
}

// draw samples one service cost (>= 1 tick).
func (l Latency) draw(rng *rand.Rand) int64 {
	var v float64
	switch l.Kind {
	case LatBimodal:
		if rng.Float64() < l.C {
			v = l.B
		} else {
			v = l.A
		}
	case LatPareto:
		v = l.A / math.Pow(1-rng.Float64(), 1/l.B)
	default:
		v = math.Exp(rng.NormFloat64()*l.B + l.A)
	}
	if v < 1 {
		return 1
	}
	if v > 1e9 {
		return 1e9
	}
	return int64(v)
}

// Cohort is one client class: a share of the traffic with its own deadline
// budget and shed priority.
type Cohort struct {
	Name string
	// Weight is the cohort's share of requests (normalized over all
	// cohorts by the seeded assignment draw).
	Weight float64
	// Deadline is the per-request budget in ticks from arrival.
	Deadline int64
	// Priority orders load shedding: higher-priority requests are shed
	// last. Priority 0 is sheddable at the queue watermark.
	Priority int
}

// WindowKind enumerates the correlated disturbance windows.
type WindowKind uint8

const (
	// WindowOutage composes a regional-outage fault axis into instances
	// arriving inside the window.
	WindowOutage WindowKind = iota
	// WindowFlapStorm composes a flap fault axis into instances arriving
	// inside the window.
	WindowFlapStorm
)

// Window is one disturbance interval [Start, Start+Len) in ticks.
type Window struct {
	Kind       WindowKind
	Start, Len int64
}

// Spec is one declarative workload. The zero Spec is invalid (Arrival.Rate
// must be positive); use Parse or construct and Validate.
type Spec struct {
	Arrival Arrival
	Latency Latency
	Cohorts []Cohort
	Windows []Window
}

// DefaultDeadline is the implicit cohort's per-request budget in ticks.
const DefaultDeadline = 400

// defaultLatency is the implicit service model: lognormal(4, 0.5), mean
// ~62 ticks.
var defaultLatency = Latency{Kind: LatLognormal, A: 4, B: 0.5}

// defaultCohort is the implicit single client class.
var defaultCohort = Cohort{Name: "default", Weight: 1, Deadline: DefaultDeadline, Priority: 1}

// Request is one generated request. All times are virtual ticks.
type Request struct {
	// ID is the request's index in arrival order.
	ID int
	// Arrival is the arrival tick.
	Arrival int64
	// Service is the modeled intrinsic service cost in ticks (one
	// latency-model draw; the cost of one instance attempt).
	Service int64
	// Cohort indexes Spec.EffectiveCohorts().
	Cohort int
	// Deadline is the budget in ticks from Arrival (cohort-derived).
	Deadline int64
	// Priority is the shed priority (cohort-derived).
	Priority int
	// Window indexes Spec.Windows for the first disturbance window
	// containing Arrival, or -1.
	Window int
	// Seed is the per-request instance seed, derived deterministically
	// from the generation seed and ID.
	Seed int64
}

// EffectiveCohorts returns the spec's cohorts, or the implicit default
// cohort when none are declared.
func (s Spec) EffectiveCohorts() []Cohort {
	if len(s.Cohorts) == 0 {
		return []Cohort{defaultCohort}
	}
	return s.Cohorts
}

// EffectiveLatency returns the spec's latency model, or the implicit
// default when the spec carries none (zero-valued Latency).
func (s Spec) EffectiveLatency() Latency {
	if s.Latency == (Latency{}) {
		return defaultLatency
	}
	return s.Latency
}

// Scale returns the spec with every arrival rate multiplied by mult — the
// offered-load multiplier axis of the overload sweep. Burst sizes scale
// too (rounded up), so a 4x burst workload genuinely offers 4x.
func (s Spec) Scale(mult float64) Spec {
	s.Arrival.Rate *= mult
	s.Arrival.Peak *= mult
	if s.Arrival.Kind == ArrivalBurst {
		s.Arrival.Size = int(math.Ceil(float64(s.Arrival.Size) * mult))
	}
	// Cohorts and Windows are shared, immutable-by-convention slices; Scale
	// only rewrites the value-typed Arrival.
	return s
}

// String renders the spec in its canonical parseable form: arrival,
// latency (when explicit), cohorts, windows.
func (s Spec) String() string {
	var b strings.Builder
	switch s.Arrival.Kind {
	case ArrivalPoisson:
		fmt.Fprintf(&b, "poisson:%s", ftoa(s.Arrival.Rate))
	case ArrivalDiurnal:
		fmt.Fprintf(&b, "diurnal:%d:%s:%s", s.Arrival.Period, ftoa(s.Arrival.Rate), ftoa(s.Arrival.Peak))
	case ArrivalBurst:
		fmt.Fprintf(&b, "burst:%s:%d:%d", ftoa(s.Arrival.Rate), s.Arrival.Size, s.Arrival.Period)
	default:
		fmt.Fprintf(&b, "const:%s", ftoa(s.Arrival.Rate))
	}
	if s.Latency != (Latency{}) {
		switch s.Latency.Kind {
		case LatBimodal:
			fmt.Fprintf(&b, "+bimodal:%s:%s:%s", ftoa(s.Latency.A), ftoa(s.Latency.B), ftoa(s.Latency.C))
		case LatPareto:
			fmt.Fprintf(&b, "+pareto:%s:%s", ftoa(s.Latency.A), ftoa(s.Latency.B))
		default:
			fmt.Fprintf(&b, "+lognormal:%s:%s", ftoa(s.Latency.A), ftoa(s.Latency.B))
		}
	}
	for _, c := range s.Cohorts {
		fmt.Fprintf(&b, "+cohort:%s:%s:%d:%d", c.Name, ftoa(c.Weight), c.Deadline, c.Priority)
	}
	for _, w := range s.Windows {
		tok := "outagewin"
		if w.Kind == WindowFlapStorm {
			tok = "flapstorm"
		}
		fmt.Fprintf(&b, "+%s:%d:%d", tok, w.Start, w.Len)
	}
	return b.String()
}

// ftoa renders a parameter float compactly ("40", "0.5", "1e06"). The
// exponent's "+" is dropped: "+" separates tokens, and ParseFloat reads
// "1e06" as 1e+06.
func ftoa(v float64) string {
	return strings.Replace(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e", 1)
}

// tokenErr is the parse-error shape: every error names the offending
// token, its 1-based index, and its byte position in the raw spec.
func tokenErr(raw string, idx, off int, tok, format string, args ...any) error {
	return fmt.Errorf("workload: %q: token %d %q (char %d): %s",
		raw, idx, tok, off, fmt.Sprintf(format, args...))
}

// Parse reads the token string form. The parsed spec is validated; errors
// name the offending token and its position.
func Parse(raw string) (Spec, error) {
	if strings.TrimSpace(raw) == "" {
		return Spec{}, fmt.Errorf("workload: empty spec")
	}
	var s Spec
	parts := strings.Split(raw, "+")
	off := 0
	for i, part := range parts {
		tok := strings.TrimSpace(part)
		idx := i + 1
		fields := strings.Split(tok, ":")
		name := fields[0]
		args := fields[1:]
		var err error
		if i == 0 {
			err = s.parseArrival(name, args)
			if err == nil {
				switch name {
				case "const", "poisson", "diurnal", "burst":
				default:
					err = fmt.Errorf("unknown arrival process %q (have const, poisson, diurnal, burst)", name)
				}
			}
		} else {
			err = s.parseAxis(name, args)
		}
		if err != nil {
			return Spec{}, tokenErr(raw, idx, off, tok, "%v", err)
		}
		off += len(part) + 1
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("workload: %q: %w", raw, err)
	}
	return s, nil
}

// MustParse is Parse for well-formed literals in driver code.
func MustParse(raw string) Spec {
	s, err := Parse(raw)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Spec) parseArrival(name string, args []string) error {
	switch name {
	case "const", "poisson":
		r, err := floatArg(args, 0, "rate")
		if err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("%s wants 1 argument (rate), got %d", name, len(args))
		}
		s.Arrival = Arrival{Kind: ArrivalConst, Rate: r}
		if name == "poisson" {
			s.Arrival.Kind = ArrivalPoisson
		}
	case "diurnal":
		if len(args) != 3 {
			return fmt.Errorf("diurnal wants 3 arguments (period:trough:peak), got %d", len(args))
		}
		p, err := intArg(args, 0, "period")
		if err != nil {
			return err
		}
		base, err := floatArg(args, 1, "trough rate")
		if err != nil {
			return err
		}
		peak, err := floatArg(args, 2, "peak rate")
		if err != nil {
			return err
		}
		s.Arrival = Arrival{Kind: ArrivalDiurnal, Rate: base, Peak: peak, Period: p}
	case "burst":
		if len(args) != 3 {
			return fmt.Errorf("burst wants 3 arguments (rate:size:every), got %d", len(args))
		}
		r, err := floatArg(args, 0, "rate")
		if err != nil {
			return err
		}
		size, err := intArg(args, 1, "size")
		if err != nil {
			return err
		}
		every, err := intArg(args, 2, "every")
		if err != nil {
			return err
		}
		s.Arrival = Arrival{Kind: ArrivalBurst, Rate: r, Size: int(size), Period: every}
	default:
		// Reported by the caller as an unknown arrival process; parse
		// nothing here.
	}
	return nil
}

func (s *Spec) parseAxis(name string, args []string) error {
	switch name {
	case "lognormal", "bimodal", "pareto":
		if s.Latency != (Latency{}) {
			return fmt.Errorf("second latency model (one per spec)")
		}
		switch name {
		case "lognormal":
			if len(args) != 2 {
				return fmt.Errorf("lognormal wants 2 arguments (mu:sigma), got %d", len(args))
			}
			mu, err := floatArg(args, 0, "mu")
			if err != nil {
				return err
			}
			sigma, err := floatArg(args, 1, "sigma")
			if err != nil {
				return err
			}
			s.Latency = Latency{Kind: LatLognormal, A: mu, B: sigma}
		case "bimodal":
			if len(args) != 3 {
				return fmt.Errorf("bimodal wants 3 arguments (fast:slow:pslow), got %d", len(args))
			}
			fast, err := floatArg(args, 0, "fast")
			if err != nil {
				return err
			}
			slow, err := floatArg(args, 1, "slow")
			if err != nil {
				return err
			}
			p, err := floatArg(args, 2, "pslow")
			if err != nil {
				return err
			}
			s.Latency = Latency{Kind: LatBimodal, A: fast, B: slow, C: p}
		case "pareto":
			if len(args) != 2 {
				return fmt.Errorf("pareto wants 2 arguments (scale:alpha), got %d", len(args))
			}
			scale, err := floatArg(args, 0, "scale")
			if err != nil {
				return err
			}
			alpha, err := floatArg(args, 1, "alpha")
			if err != nil {
				return err
			}
			s.Latency = Latency{Kind: LatPareto, A: scale, B: alpha}
		}
	case "cohort":
		if len(args) != 3 && len(args) != 4 {
			return fmt.Errorf("cohort wants name:weight:deadline[:prio], got %d arguments", len(args))
		}
		c := Cohort{Name: args[0], Priority: 1}
		if c.Name == "" {
			return fmt.Errorf("empty cohort name")
		}
		w, err := floatArg(args, 1, "weight")
		if err != nil {
			return err
		}
		c.Weight = w
		d, err := intArg(args, 2, "deadline")
		if err != nil {
			return err
		}
		c.Deadline = d
		if len(args) == 4 {
			p, err := intArg(args, 3, "priority")
			if err != nil {
				return err
			}
			c.Priority = int(p)
		}
		s.Cohorts = append(s.Cohorts, c)
	case "outagewin", "flapstorm":
		if len(args) != 2 {
			return fmt.Errorf("%s wants 2 arguments (start:len), got %d", name, len(args))
		}
		start, err := intArg(args, 0, "start")
		if err != nil {
			return err
		}
		length, err := intArg(args, 1, "len")
		if err != nil {
			return err
		}
		w := Window{Kind: WindowOutage, Start: start, Len: length}
		if name == "flapstorm" {
			w.Kind = WindowFlapStorm
		}
		s.Windows = append(s.Windows, w)
	default:
		return fmt.Errorf("unknown token %q (have lognormal, bimodal, pareto, cohort, outagewin, flapstorm)", name)
	}
	return nil
}

func floatArg(args []string, i int, what string) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing %s argument", what)
	}
	v, err := strconv.ParseFloat(args[i], 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: not a number", what, args[i])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// NaN slips past every range check, and +Inf renders with the
		// token separator.
		return 0, fmt.Errorf("%s %q: not finite", what, args[i])
	}
	return v, nil
}

func intArg(args []string, i int, what string) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing %s argument", what)
	}
	v, err := strconv.ParseInt(args[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: not an integer", what, args[i])
	}
	return v, nil
}

// Validate checks the spec's shape so that every invalid workload fails at
// spec time, never mid-generation.
func (s Spec) Validate() error {
	a := s.Arrival
	if !(a.Rate > 0) || math.IsInf(a.Rate, 0) {
		return fmt.Errorf("arrival rate %v, need > 0", a.Rate)
	}
	switch a.Kind {
	case ArrivalDiurnal:
		if a.Period < 1 {
			return fmt.Errorf("diurnal period %d, need >= 1", a.Period)
		}
		if !(a.Peak >= a.Rate) {
			return fmt.Errorf("diurnal peak %v below trough %v", a.Peak, a.Rate)
		}
	case ArrivalBurst:
		if a.Size < 1 {
			return fmt.Errorf("burst size %d, need >= 1", a.Size)
		}
		if a.Period < 1 {
			return fmt.Errorf("burst interval %d, need >= 1", a.Period)
		}
	}
	l := s.EffectiveLatency()
	switch l.Kind {
	case LatLognormal:
		if l.B < 0 {
			return fmt.Errorf("lognormal sigma %v, need >= 0", l.B)
		}
	case LatBimodal:
		if l.A < 1 || l.B < l.A {
			return fmt.Errorf("bimodal wants 1 <= fast <= slow, got %v, %v", l.A, l.B)
		}
		if l.C < 0 || l.C > 1 {
			return fmt.Errorf("bimodal pslow %v outside [0, 1]", l.C)
		}
	case LatPareto:
		if l.A < 1 {
			return fmt.Errorf("pareto scale %v, need >= 1", l.A)
		}
		if !(l.B > 1) {
			return fmt.Errorf("pareto alpha %v, need > 1 (finite mean)", l.B)
		}
	}
	if math.IsInf(l.Mean(), 0) || l.Mean() <= 0 {
		return fmt.Errorf("latency model has no finite positive mean")
	}
	for _, c := range s.Cohorts {
		if strings.ContainsAny(c.Name, "+/:,= \t\n") {
			return fmt.Errorf("cohort name %q contains spec metacharacters", c.Name)
		}
		if !(c.Weight > 0) {
			return fmt.Errorf("cohort %s weight %v, need > 0", c.Name, c.Weight)
		}
		if c.Deadline < 1 {
			return fmt.Errorf("cohort %s deadline %d, need >= 1", c.Name, c.Deadline)
		}
		if c.Priority < 0 {
			return fmt.Errorf("cohort %s priority %d, need >= 0", c.Name, c.Priority)
		}
	}
	for _, w := range s.Windows {
		if w.Start < 0 || w.Len < 1 {
			return fmt.Errorf("disturbance window [%d, +%d), need start >= 0 and len >= 1", w.Start, w.Len)
		}
	}
	return nil
}

// reqSeed derives the per-request instance seed (splitmix-style mix so
// adjacent IDs land far apart in seed space).
func reqSeed(seed int64, id int) int64 {
	return seed ^ (int64(id)+1)*-0x61c8864680b583eb // 2^64/phi, signed
}

// Generate produces every request arriving in [0, horizon), in arrival
// order. It is a pure function of (spec, seed, horizon).
func (s Spec) Generate(seed int64, horizon int64) []Request {
	return s.generate(seed, horizon, -1)
}

// GenerateN produces the first n requests of the stream regardless of
// horizon — the bounded-count form the daemon uses.
func (s Spec) GenerateN(seed int64, n int) []Request {
	return s.generate(seed, math.MaxInt64, n)
}

func (s Spec) generate(seed int64, horizon int64, limit int) []Request {
	// Two independent deterministic streams: arrivals first, then the
	// per-request draws in arrival order. Splitting the streams keeps a
	// latency-model change from perturbing arrival times.
	arrivalRng := rand.New(rand.NewSource(seed ^ 0x41525256)) // "ARRV"
	drawRng := rand.New(rand.NewSource(seed ^ 0x44524157))    // "DRAW"
	times := s.arrivals(arrivalRng, horizon, limit)
	lat := s.EffectiveLatency()
	cohorts := s.EffectiveCohorts()
	totalW := 0.0
	for _, c := range cohorts {
		totalW += c.Weight
	}
	reqs := make([]Request, len(times))
	for i, at := range times {
		r := Request{
			ID:      i,
			Arrival: at,
			Service: lat.draw(drawRng),
			Window:  -1,
			Seed:    reqSeed(seed, i),
		}
		// Weighted cohort draw.
		pick := drawRng.Float64() * totalW
		ci := 0
		for j, c := range cohorts {
			if pick < c.Weight || j == len(cohorts)-1 {
				ci = j
				break
			}
			pick -= c.Weight
		}
		r.Cohort = ci
		r.Deadline = cohorts[ci].Deadline
		r.Priority = cohorts[ci].Priority
		for wi, w := range s.Windows {
			if at >= w.Start && at < w.Start+w.Len {
				r.Window = wi
				break
			}
		}
		reqs[i] = r
	}
	return reqs
}

// arrivals draws the arrival-time stream: ascending ticks in [0, horizon),
// at most limit entries when limit >= 0.
func (s Spec) arrivals(rng *rand.Rand, horizon int64, limit int) []int64 {
	var out []int64
	emit := func(t int64) bool {
		if t >= horizon || (limit >= 0 && len(out) >= limit) {
			return false
		}
		out = append(out, t)
		return true
	}
	a := s.Arrival
	switch a.Kind {
	case ArrivalPoisson:
		mean := 1000 / a.Rate
		t := 0.0
		for {
			t += rng.ExpFloat64() * mean
			if !emit(int64(t)) {
				return out
			}
		}
	case ArrivalDiurnal:
		// Thinning: candidates at the peak rate, accepted with probability
		// rate(t)/peak where rate swings sinusoidally over Period.
		mean := 1000 / a.Peak
		t := 0.0
		for {
			t += rng.ExpFloat64() * mean
			if t >= float64(horizon) && limit < 0 {
				return out
			}
			phase := 2 * math.Pi * t / float64(a.Period)
			rate := a.Rate + (a.Peak-a.Rate)*0.5*(1-math.Cos(phase))
			if rng.Float64() < rate/a.Peak {
				if !emit(int64(t)) {
					return out
				}
			}
		}
	case ArrivalBurst:
		ia := 1000 / a.Rate
		base := ia
		nextBurst := a.Period
		for {
			if int64(base) < nextBurst {
				if !emit(int64(base)) {
					return out
				}
				base += ia
				continue
			}
			for i := 0; i < a.Size; i++ {
				if !emit(nextBurst) {
					return out
				}
			}
			nextBurst += a.Period
		}
	default: // const
		ia := 1000 / a.Rate
		t := ia
		for {
			if !emit(int64(t)) {
				return out
			}
			t += ia
		}
	}
}

// SaturationRate returns the offered-load rate (requests per kilotick)
// that saturates a pool of the given worker count under this spec's
// latency model: workers / mean-service, the 1x anchor of the overload
// sweep's multiplier axis.
func (s Spec) SaturationRate(workers int) float64 {
	return float64(workers) * 1000 / s.EffectiveLatency().Mean()
}
