package harness

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E13Resilience is the lossy-network resilience sweep: loss ∈ {0, 1%, 5%,
// 20%} × transport ∈ {raw, reliable} × fault ∈ {crash, flap}, plus dup and
// regional-outage rows, on the crash protocol at n=16, t=3. The raw rows
// show how the protocol degrades when the reliable-channel assumption of
// the asynchronous model is broken — under Bernoulli loss a party waits
// forever for a round message that will never arrive, so runs stall with
// partial (or zero) decisions — while the reliable rows show the
// ack/retransmit sublayer (internal/relnet) restoring convergence at the
// price of retransmit traffic, which the table quantifies per cell.
//
// Every scenario string is canonical and replayable: the same tokens work
// in aarun -scenario, and the loss/dup decisions are drawn from the run's
// seeded scheduler rng, so each cell records and replays bit-for-bit
// through internal/incident.
func E13Resilience(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E13: lossy-network resilience — raw vs reliable transport (crash-aa, n=16, t=3, eps=1e-3, bimodal inputs over [0,100])",
		"scenario", "transport", "decided", "ok", "verdict", "drops", "dups", "retransmits", "giveups", "msgs")

	const n, t = 16, 3
	var scens []scenario.Spec
	addLoss := func(fault string) {
		for _, loss := range []string{"", "loss:0.01", "loss:0.05", "loss:0.2"} {
			s := scenario.Spec{Sched: "random", N: n, T: t}
			if fault != "" {
				s.Faults = append(s.Faults, fault)
			}
			if loss != "" {
				s.Faults = append(s.Faults, loss)
			}
			scens = append(scens, s)
		}
	}
	addLoss("crash")
	addLoss("flap:60")
	scens = append(scens,
		scenario.MustParse("random+dup:0.1/n=16,t=3"),
		scenario.MustParse("random+loss:0.05+dup:0.1/n=16,t=3"),
		scenario.MustParse("random+outage:4:50:100/n=16,t=3"),
	)

	p := core.Params{Protocol: core.ProtoCrash, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 100}
	err := runTransportPairs(e, "E13", p, scens, func(scen scenario.Spec, transport string, rep *Report) {
		tbl.AddRow(scen.String(), transport,
			trace.I(len(rep.Result.Decisions)), trace.B(rep.OK()), e13Verdict(rep),
			trace.I(rep.Result.Stats.MessagesDropped), trace.I(rep.Result.Stats.MessagesDuped),
			trace.I(int(rep.Transport.Retransmits)), trace.I(int(rep.Transport.GiveUps)),
			trace.I(rep.Result.Stats.MessagesSent))
	})
	return tbl, err
}

// runTransportPairs runs every scenario twice on p over bimodal inputs on
// [0, 100] at seed 17, on the raw and then on the reliable transport, and
// hands each report to row in that order with its transport's name.
func runTransportPairs(e *Engine, id string, p core.Params, scens []scenario.Spec, row func(scenario.Spec, string, *Report)) error {
	specs := make([]Spec, 0, 2*len(scens))
	for _, scen := range scens {
		for _, reliable := range []bool{false, true} {
			spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 100), scen, 17)
			if err != nil {
				return err
			}
			spec.Reliable = reliable
			specs = append(specs, spec)
		}
	}
	reps, err := e.RunAllLabeled(specs, func(i int) string {
		return fmt.Sprintf("%s %s %s", id, scens[i/2], [2]string{"raw", "rel"}[i%2])
	})
	if err != nil {
		return err
	}
	for i, rep := range reps {
		row(scens[i/2], [2]string{"raw", "reliable"}[i%2], rep)
	}
	return nil
}

// e13Verdict compresses a report's outcome into one table token. A
// "+giveups" suffix flags rows where the reliable transport abandoned a
// frame after exhausting its retries: the run may still converge, but an
// abandoned frame means the retry budget was the only thing between this
// cell and a stall, so flagged rows deserve scrutiny.
func e13Verdict(rep *Report) string {
	verdict := ""
	switch {
	case rep.OK():
		verdict = "converged"
	case errors.Is(rep.RunErr, sim.ErrStalled):
		verdict = "stalled"
	case errors.Is(rep.RunErr, sim.ErrEventBudget):
		verdict = "budget"
	case rep.RunErr != nil:
		verdict = "run-error"
	case len(rep.ProtoErrs) > 0:
		verdict = "proto-error"
	case !rep.ValidityOK:
		verdict = "validity"
	default:
		verdict = "agreement"
	}
	if rep.Transport.GiveUps > 0 {
		verdict += "+giveups"
	}
	return verdict
}
