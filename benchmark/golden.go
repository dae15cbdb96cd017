package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// goldenSeed is the default seed, the one golden.json was recorded at.
const goldenSeed = 1

// goldenOps is how many leading ops of each simulated workload are pinned.
const goldenOps = 64

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins the exact simulated statistics at the default seed: per
// simulated workload the first ops' messages, bytes, rounds, drops,
// duplicates and retransmits, and the virtual-time results of the
// serve.Simulate probe. A change that only makes the program faster leaves
// every one of them identical; the run fails on any difference.
type goldenFile struct {
	Seed      int64                `json:"seed"`
	Workloads map[string][]opStats `json:"workloads"`
	Simulate  *simulateCounts      `json:"serve_simulate"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("golden.json was recorded at seed %d, the default is %d", g.Seed, goldenSeed)
	}
	return &g, nil
}

// simulateAt returns the pinned serve.Simulate counts if seed is the one
// they were recorded at.
func (g *goldenFile) simulateAt(seed int64) *simulateCounts {
	if seed != goldenSeed {
		return nil
	}
	return g.Simulate
}

// compare checks the ops a run executed against the pinned ones.
func (g *goldenFile) compare(workload string, got []opStats) []string {
	want, ok := g.Workloads[workload]
	if !ok {
		return nil
	}
	var problems []string
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			problems = append(problems, fmt.Sprintf("op %d: got %+v, golden %+v", i, got[i], want[i]))
		}
	}
	return problems
}

// updateGolden records golden.json afresh at the default seed.
func updateGolden(path string) error {
	g := goldenFile{Seed: goldenSeed, Workloads: map[string][]opStats{}}
	for _, w := range workloads {
		if w.loop == nil || !w.loop.simulated {
			continue
		}
		op, err := w.loop.build(goldenSeed)
		if err != nil {
			return err
		}
		for i := 0; i < goldenOps; i++ {
			res, err := op(i)
			if err != nil {
				return err
			}
			if !res.ok {
				return fmt.Errorf("%s op %d: outcome not OK", w.name, i)
			}
			g.Workloads[w.name] = append(g.Workloads[w.name], res.stats)
		}
	}
	res := newLayerResult()
	counts, err := probeSimulate(res, goldenSeed, nil)
	if err != nil {
		return err
	}
	if len(res.problems) > 0 {
		return fmt.Errorf("%v", res.problems)
	}
	g.Simulate = &counts
	data, err := json.Marshal(g)
	if err != nil {
		return err
	}
	// One op per line keeps a difference readable.
	text := strings.NewReplacer("[{", "[\n{", "},{", "},\n{", "}],", "}\n],\n").Replace(string(data))
	return os.WriteFile(path, []byte(text+"\n"), 0o644)
}
