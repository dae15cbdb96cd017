// Sensor fusion: ten temperature sensors must agree on a reading within
// 0.1°C, but three of them are compromised and actively lie — one reports
// absurd extremes, one tells different values to different peers
// (equivocation), one floods garbage. The witness-technique protocol
// (optimal resilience t < n/3) neutralizes all three: every honest sensor
// converges inside the range of the honest readings.
//
// This is the scenario that motivates Byzantine approximate agreement:
// real-valued fusion where exact consensus is unnecessary but bounded
// disagreement and hull-validity are safety-critical.
package main

import (
	"fmt"
	"log"

	"repro/aa"
)

func main() {
	const (
		sensors   = 10
		faulty    = 3
		precision = 0.1 // °C
	)
	cfg := aa.Config{
		Model:   aa.ModelByzantineWitness,
		N:       sensors,
		T:       faulty,
		Epsilon: precision,
		Lo:      -40, // physically plausible range, promised a priori
		Hi:      60,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	// Honest sensors read the true temperature (21.3°C) with small noise.
	// Parties 2, 5, 8 are compromised; their entries are ignored.
	readings := []float64{21.24, 21.31, 0, 21.28, 21.35, 0, 21.30, 21.27, 0, 21.33}

	out, err := aa.Simulate(cfg, readings,
		aa.WithSeed(99),
		aa.WithScheduler(aa.SchedSplitViews),
		aa.WithByzantine(2, aa.ByzExtreme),    // reports Hi + 100·(Hi−Lo) = 10 060 °C
		aa.WithByzantine(5, aa.ByzEquivocate), // different lies to different peers
		aa.WithByzantine(8, aa.ByzSpam),       // floods malformed traffic
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fused readings of the honest sensors:")
	for id, v := range out.Values {
		fmt.Printf("  sensor %d: %.4f °C\n", id, v)
	}
	fmt.Printf("\ndisagreement %.4g °C (required <= %.4g): %v\n",
		out.Spread, precision, out.Agreed)
	fmt.Printf("within honest reading range [21.24, 21.35]: %v\n", out.Valid)
	fmt.Printf("cost: %.0f async rounds, %d messages\n", out.Rounds, out.Messages)
	if !out.OK() {
		log.Fatal("fusion failed")
	}
}
