package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestWitnessDeterminism pins the witness protocol's experiment tables
// across engine parallelism, the correctness bar for the dense-state
// RBC/witness refactor: the E4 (message complexity) and E6 (scaling)
// witness sweeps must render byte-identical at 1 worker and at 8, and
// twice at 8. Because every message a witness run sends is counted into
// these tables, any bookkeeping change that adds, drops, or reorders
// protocol traffic shows up as a table diff.
func TestWitnessDeterminism(t *testing.T) {
	cases := []struct {
		id  string
		run func(e *Engine) (*trace.Table, error)
	}{
		{"E4-witness", func(e *Engine) (*trace.Table, error) {
			return E4MessagesFor(e, []E4Case{{Proto: core.ProtoWitness, Sizes: []int{4, 7, 13}}})
		}},
		{"E6-witness", func(e *Engine) (*trace.Table, error) {
			return E6ScalingFor(e, []core.Protocol{core.ProtoWitness}, []int{8, 16})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			seq := renderAt(t, 1, c.run)
			par := renderAt(t, 8, c.run)
			if seq != par {
				t.Fatalf("%s: parallel table differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
					c.id, seq, par)
			}
			again := renderAt(t, 8, c.run)
			if par != again {
				t.Fatalf("%s: two parallel renders differ", c.id)
			}
		})
	}
}
