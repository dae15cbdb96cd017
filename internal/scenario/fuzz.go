package scenario

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/rng"
)

// FuzzStats summarizes one registry fuzz campaign.
type FuzzStats struct {
	// Trials is the number of random compositions drawn.
	Trials int
	// Valid and Invalid partition the trials by Validate's verdict.
	Valid, Invalid int
	// GarbageParsed counts random byte strings Parse accepted (fine if the
	// bytes happened to form a real spec; the point is that none panic).
	GarbageParsed int
}

// Random draws a random scenario composition from the registry, valid or
// not: out-of-range shapes, over-full fault lists, and bogus scheduler
// arguments are all in the distribution, because the contract under test
// is that every invalid combination is rejected at spec time.
func Random(rng *rand.Rand) Spec {
	scheds := SchedulerNames()
	s := Spec{Sched: scheds[rng.Intn(len(scheds))], T: TUnset}
	if rng.Intn(4) == 0 {
		s.Sched += fmt.Sprintf(":%d", rng.Intn(30)-5) // sometimes <= 0: invalid
	}
	s.N = rng.Intn(40) - 2 // sometimes < 1: invalid
	if rng.Intn(8) > 0 {
		s.T = rng.Intn(12) - 1 // sometimes == -1 (TUnset) or >= N: both paths
	}
	// Each list is in sorted key order, which fixes every draw below.
	var party, nets, restarts []string
	for _, name := range sortedKeys(faults) {
		switch k := faults[name]; {
		case k.Net != nil:
			nets = append(nets, name)
		case k.Restart != nil:
			restarts = append(restarts, name)
		default:
			party = append(party, name)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		s.Faults = append(s.Faults, party[rng.Intn(len(party))])
	}
	// Network-fault axes ride the same "+" list; arguments range from
	// plausible through boundary-invalid (p=0, k=0, negative windows) to
	// raw garbage, because rejection at spec time is the contract.
	if rng.Intn(3) == 0 {
		tok := nets[rng.Intn(len(nets))]
		switch rng.Intn(3) {
		case 0:
			// Bare token: registry defaults.
		case 1:
			switch tok {
			case "loss", "dup":
				tok += fmt.Sprintf(":0.%02d", rng.Intn(100)) // 0.00 is invalid
			case "outage":
				tok += fmt.Sprintf(":%d:%d:%d", rng.Intn(6), rng.Intn(100)-5, rng.Intn(100)-5)
			case "flap":
				tok += fmt.Sprintf(":%d", rng.Intn(100)-5)
			}
		default:
			tok += ":" + []string{"x", "-1", "1.5", "0:0", "2"}[rng.Intn(5)]
		}
		s.Faults = append(s.Faults, tok)
	}
	// Crash-recovery axes: bare, boundary (k=0, down past the delay cap,
	// negative lag), and raw-garbage arguments all appear, plus the
	// invalid compositions above (party faults + recover, multiple
	// restart tokens across draws) — spec-time rejection is the contract.
	if rng.Intn(4) == 0 {
		tok := restarts[rng.Intn(len(restarts))]
		switch rng.Intn(3) {
		case 0:
			// Bare token: registry defaults.
		case 1:
			if tok == "amnesia" {
				tok += fmt.Sprintf(":%d:%d", rng.Intn(4), rng.Intn(600)-5)
			} else {
				tok += fmt.Sprintf(":%d:%d:%d", rng.Intn(4), rng.Intn(600)-5, rng.Intn(200)-5)
			}
		default:
			tok += ":" + []string{"x", "-1", "1.5", "0:0", "2"}[rng.Intn(5)]
		}
		s.Faults = append(s.Faults, tok)
	}
	return s
}

// Fuzz drives `trials` random compositions through the spec lifecycle and
// checks the registry's contracts: String→Parse round-trips exactly for
// every valid spec, Resolve succeeds on exactly the valid ones, and Parse
// never panics — not even on raw garbage. It returns an error on the first
// contract violation.
func Fuzz(trials int, seed int64) (*FuzzStats, error) {
	rng := rand.New(rng.New(seed))
	stats := &FuzzStats{}
	for i := 0; i < trials; i++ {
		stats.Trials++
		s := Random(rng)
		raw := s.String()
		if err := s.Validate(); err != nil {
			stats.Invalid++
			// Invalidity must survive the round trip: the string form of a
			// bad spec must not parse into a good one.
			if _, perr := Parse(raw); perr == nil {
				return stats, fmt.Errorf("invalid spec %q (%v) round-trips to a valid one", raw, err)
			}
			// And Resolve must refuse what Validate refused.
			if _, rerr := s.Resolve(); rerr == nil {
				return stats, fmt.Errorf("invalid spec %q resolved despite %v", raw, err)
			}
			continue
		}
		stats.Valid++
		parsed, err := Parse(raw)
		if err != nil {
			return stats, fmt.Errorf("valid spec %q fails to re-parse: %w", raw, err)
		}
		if !reflect.DeepEqual(parsed, s) {
			return stats, fmt.Errorf("round trip drifted: %q -> %+v, want %+v", raw, parsed, s)
		}
		if s.T != TUnset {
			if _, err := s.Resolve(); err != nil {
				return stats, fmt.Errorf("valid spec %q fails to resolve: %w", raw, err)
			}
		}
		// Parse must tolerate arbitrary bytes without panicking.
		if _, err := Parse(mutate(rng, raw)); err == nil {
			stats.GarbageParsed++
		}
	}
	return stats, nil
}

// mutate mangles a spec string: splices, duplicate separators, random bytes.
func mutate(rng *rand.Rand, raw string) string {
	b := []byte(raw)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		switch rng.Intn(3) {
		case 0:
			if len(b) > 0 {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
		case 1:
			pos := rng.Intn(len(b) + 1)
			b = append(b[:pos:pos], append([]byte{"+/,:="[rng.Intn(5)]}, b[pos:]...)...)
		default:
			if len(b) > 1 {
				pos := rng.Intn(len(b) - 1)
				b = append(b[:pos], b[pos+1:]...)
			}
		}
	}
	return string(b)
}
