package harness

import (
	"strings"
	"testing"
)

// TestExperimentsRun executes every experiment driver end to end with a
// small seed count and sanity-checks the tables they produce.
func TestExperimentsRun(t *testing.T) {
	for _, exp := range Experiments(&Engine{}, 1) {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl, err := exp.Run()
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatalf("%s: render: %v", exp.ID, err)
			}
			t.Logf("\n%s", sb.String())
		})
	}
}
