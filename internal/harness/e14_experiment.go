package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// E14Recovery is the crash-recovery sweep: recovery axis ∈ {lossless
// checkpoint (lag 0), stale checkpoint (lag 30), amnesia at start} × loss
// ∈ {0, 5%} × transport ∈ {raw, reliable}, on the adaptive crash protocol
// at n=9, t=2. Two parties checkpoint, crash mid-run, lose all state newer
// than their checkpoint, and rejoin after a darkness window.
//
// The table quantifies the recovery trade the checkpoint lag buys: with
// lag 0 the rollback discards nothing and the reliable transport's
// retransmissions repair the darkness window, so the run converges like a
// transient partition. With a stale checkpoint the rolled-back party has
// already acknowledged traffic it no longer remembers — no transport can
// retransmit what the peer believes was delivered — and recovery leans
// entirely on the adaptive DECIDED re-announce: decided peers freeze their
// values and re-multicast them at rejoin-visible times, which the reliable
// transport delivers through the darkness. The raw rows show why the
// transport matters: everything sent into the darkness window is simply
// gone, and the rejoined parties wait forever for round traffic nobody
// will repeat.
//
// Every scenario string is canonical and replayable: the same tokens work
// in aarun -scenario, and recovery runs record and replay bit-for-bit
// (checkpoint digests included) through internal/incident bundle v3.
func E14Recovery(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E14: crash-recovery sweep — checkpoint lag vs transport (crash-aa adaptive, n=9, t=2, eps=1e-3, bimodal inputs over [0,100])",
		"scenario", "transport", "decided", "ok", "verdict", "ckpts", "retransmits", "giveups", "msgs")

	const n, t = 9, 2
	axes := []string{
		"recover:2:50:0",  // checkpoint at the kill instant: nothing rolled back
		"recover:2:50:30", // checkpoint 30 ticks stale: acked state is lost
		"amnesia:2:1",     // restart from the zero checkpoint before any delivery
	}
	var scens []scenario.Spec
	for _, axis := range axes {
		for _, loss := range []string{"", "loss:0.05"} {
			s := scenario.Spec{Sched: "random", N: n, T: t, Faults: []string{axis}}
			if loss != "" {
				s.Faults = append(s.Faults, loss)
			}
			scens = append(scens, s)
		}
	}

	type row struct {
		scen     scenario.Spec
		reliable bool
	}
	rows := make([]row, 0, 2*len(scens))
	specs := make([]Spec, 0, 2*len(scens))
	for _, scen := range scens {
		p := core.Params{Protocol: core.ProtoCrash, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 100,
			Adaptive: true}
		for _, reliable := range []bool{false, true} {
			spec, err := SpecFrom(p, BimodalInputs(n, 0, 100), scen, 17)
			if err != nil {
				return nil, err
			}
			spec.Reliable = reliable
			rows = append(rows, row{scen: scen, reliable: reliable})
			specs = append(specs, spec)
		}
	}

	reps, err := e.RunAllLabeled(specs, func(i int) string {
		tr := "raw"
		if rows[i].reliable {
			tr = "rel"
		}
		return fmt.Sprintf("E14 %s %s", rows[i].scen, tr)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		rep := reps[i]
		transport := "raw"
		if r.reliable {
			transport = "reliable"
		}
		tbl.AddRow(r.scen.String(), transport,
			trace.I(len(rep.Result.Decisions)), trace.B(rep.OK()), e13Verdict(rep),
			trace.I(len(rep.Checkpoints)),
			trace.I(int(rep.Transport.Retransmits)), trace.I(int(rep.Transport.GiveUps)),
			trace.I(rep.Result.Stats.MessagesSent))
	}
	return tbl, nil
}
