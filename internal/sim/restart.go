package sim

import (
	"fmt"

	"repro/internal/frame"
)

// RestartPlan schedules a crash-recovery episode for one party: a state
// snapshot at virtual time Checkpoint, a crash at Down that discards
// everything newer than the snapshot, and a rejoin at Rejoin that restores
// the checkpoint and runs the protocol's catch-up hook.
//
// The plan models STATE loss only. It does not darken the network: a party
// between Down and Rejoin still receives (into state the restore is about
// to discard) and still reacts. Callers that want communication darkness —
// the realistic composition — layer a lossy-network fate over the same
// window (internal/fault.Outage), which the scenario layer's recover axis
// does. Keeping the two concerns separate keeps the per-event hot path
// free of any restart check: plans act only at tick boundaries.
type RestartPlan struct {
	// Party is the party that crashes and recovers.
	Party PartyID
	// Checkpoint is the virtual time at which the snapshot is taken.
	// Values <= 0 snapshot the post-Init state before any delivery — the
	// "zero checkpoint" an amnesiac restart recovers from.
	Checkpoint Time
	// Down is when the crash fires; state newer than the checkpoint is
	// lost. Must be >= Checkpoint and >= 1.
	Down Time
	// Rejoin is when the party restores the checkpoint and re-enters the
	// protocol. Must be > Down.
	Rejoin Time
}

// CheckRestarts is the one check of an n-party run's restart plans, in the
// simulator (Config.Validate) and the live runtime alike: each party in
// range, Down >= max(1, Checkpoint), Rejoin > Down, one plan per party.
func CheckRestarts(n int, plans []RestartPlan) error {
	for i, rp := range plans {
		if rp.Party < 0 || int(rp.Party) >= n {
			return fmt.Errorf("sim: restart party %d out of range [0,%d)", rp.Party, n)
		}
		if rp.Down < 1 || rp.Down < rp.Checkpoint {
			return fmt.Errorf("sim: restart party %d: down time %d before max(1, checkpoint %d)", rp.Party, rp.Down, rp.Checkpoint)
		}
		if rp.Rejoin <= rp.Down {
			return fmt.Errorf("sim: restart party %d: rejoin %d not after down %d", rp.Party, rp.Rejoin, rp.Down)
		}
		for _, prev := range plans[:i] {
			if prev.Party == rp.Party {
				return fmt.Errorf("sim: party %d assigned two restart plans", rp.Party)
			}
		}
	}
	return nil
}

// snapshotter is the process extension restart plans require. It is the
// structural mirror of core.Snapshotter (core imports sim, so sim cannot
// name the exported interface); process wrappers forward it to keep the
// inner protocol recoverable.
type snapshotter interface {
	// Snapshot appends the process's full volatile state to buf.
	Snapshot(buf []byte) ([]byte, error)
	// Restore replaces the process's state with a snapshot's.
	Restore(data []byte) error
	// Rejoin re-issues the idempotent traffic a restarted party needs to
	// catch back up (current-round re-send, decided re-announce).
	Rejoin()
}

// Restart action kinds, in intra-tick firing order: a snapshot scheduled
// at the same instant as a crash captures the pre-crash state.
const (
	restartSnap = iota
	restartDown
	restartRejoin
)

// restartAction is one step of a restart plan, resolved at Reset into the
// network's time-sorted action list.
type restartAction struct {
	at    Time
	plan  int32 // index into cfg.Restarts / planSnaps
	party PartyID
	kind  int8
}

// resetRestarts rebuilds the action list from the new config, recycling
// the list, the per-plan snapshot buffers, and the digest log.
func (n *Network) resetRestarts() {
	n.ractions = n.ractions[:0]
	n.rnext = 0
	n.ckptDigests = n.ckptDigests[:0]
	for len(n.planSnaps) < len(n.cfg.Restarts) {
		n.planSnaps = append(n.planSnaps, nil)
	}
	for i, rp := range n.cfg.Restarts {
		ckpt := rp.Checkpoint
		if ckpt < 0 {
			ckpt = 0
		}
		n.planSnaps[i] = n.planSnaps[i][:0]
		n.ractions = append(n.ractions,
			restartAction{at: ckpt, plan: int32(i), party: rp.Party, kind: restartSnap},
			restartAction{at: rp.Down, plan: int32(i), party: rp.Party, kind: restartDown},
			restartAction{at: rp.Rejoin, plan: int32(i), party: rp.Party, kind: restartRejoin})
	}
	// Insertion sort: the list is three actions per plan and the ordering
	// key is total (at, kind, party), so this stays allocation-free where
	// sort.Slice's closure would cost the warm path its zero-alloc budget.
	for i := 1; i < len(n.ractions); i++ {
		for j := i; j > 0 && restartActionLess(n.ractions[j], n.ractions[j-1]); j-- {
			n.ractions[j], n.ractions[j-1] = n.ractions[j-1], n.ractions[j]
		}
	}
}

// restartActionLess orders the action list by (time, kind, party).
func restartActionLess(a, b restartAction) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.party < b.party
}

// fireRestarts runs every pending restart action scheduled at or before
// the current virtual time. The run loop calls it right after advancing
// n.now to a new tick (before the tick's deliveries) and from the stall
// branch, so actions fire at identical state points in production and the
// reference — tick-boundary state is identical by the batching equivalence
// contract.
func (n *Network) fireRestarts() error {
	for n.rnext < len(n.ractions) && n.ractions[n.rnext].at <= n.now {
		a := n.ractions[n.rnext]
		n.rnext++
		if err := n.fireRestart(a); err != nil {
			return err
		}
	}
	return nil
}

// restartsPending reports whether un-fired restart actions remain; the
// stall branches use it to revive a drained run by advancing virtual time
// to the next action instead of declaring ErrStalled.
func (n *Network) restartsPending() bool { return n.rnext < len(n.ractions) }

// advanceToRestart jumps virtual time to the next pending restart action
// and fires everything due there. Only the stall branches call it: the
// queue is empty, so no delivery can be bypassed by the jump.
func (n *Network) advanceToRestart() error {
	if t := n.ractions[n.rnext].at; t > n.now {
		n.now = t
	}
	return n.fireRestarts()
}

func (n *Network) fireRestart(a restartAction) error {
	ps := n.parties[a.party]
	sn, ok := ps.proc.(snapshotter)
	if !ok {
		return fmt.Errorf("sim: restart plan for party %d: process %T does not support checkpointing", a.party, ps.proc)
	}
	switch a.kind {
	case restartSnap:
		buf, err := sn.Snapshot(n.planSnaps[a.plan][:0])
		if err != nil {
			return fmt.Errorf("sim: checkpoint party %d at t=%d: %w", a.party, n.now, err)
		}
		n.planSnaps[a.plan] = buf
		n.ckptDigests = append(n.ckptDigests, frame.Digest(buf))
	case restartDown:
		// The crash wipes any decision newer than the checkpoint; the
		// party is pending again until it re-decides after the rejoin.
		// FinishTime stays monotone: the re-decision lands at a later
		// virtual time than the forgotten one.
		n.undecide(a.party)
	case restartRejoin:
		n.undecide(a.party)
		if err := sn.Restore(n.planSnaps[a.plan]); err != nil {
			return fmt.Errorf("sim: restore party %d at t=%d: %w", a.party, n.now, err)
		}
		sn.Rejoin()
	}
	return nil
}

// undecide retracts a party's recorded decision (crash-induced memory
// loss). A non-faulty party re-enters the pending-honest count, so the run
// keeps executing until the recovered party decides again.
func (n *Network) undecide(p PartyID) {
	if !n.decided[p] {
		return
	}
	n.decided[p] = false
	n.decision[p] = 0
	n.decidedAt[p] = 0
	if !n.faulty[p] {
		n.pendingHonest++
	}
}

// CheckpointDigests returns one content digest per checkpoint taken during
// the run, in firing order. The incident layer records them so a replay
// can pin snapshot bytes without storing the snapshots themselves. The
// slice aliases run state: copy it to retain past the next Reset.
func (n *Network) CheckpointDigests() []uint64 { return n.ckptDigests }
