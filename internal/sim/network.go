package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
)

// Stats aggregates message-level accounting for one execution.
type Stats struct {
	// MessagesSent counts point-to-point sends issued (a multicast counts
	// as N sends). Sends truncated by a crash are not counted.
	MessagesSent int
	// MessagesDelivered counts deliveries actually performed.
	MessagesDelivered int
	// BytesSent sums the wire sizes of all sent messages.
	BytesSent int
	// HonestMessagesSent counts sends whose sender has no fault assignment.
	HonestMessagesSent int
	// HonestBytesSent sums wire sizes of honest sends.
	HonestBytesSent int
	// MessagesDropped counts sends suppressed by a lossy-network fate
	// (loss/outage/flap axes). Dropped sends are still counted in
	// MessagesSent — the sender paid for them — but never delivered.
	MessagesDropped int
	// MessagesDuped counts sends for which the scheduler queued a second
	// delivery of the same envelope (dup axis). Each duplicate that
	// arrives also increments MessagesDelivered.
	MessagesDuped int
}

// Result summarizes a finished execution.
type Result struct {
	// Decisions holds one entry per party that called Decide.
	Decisions map[PartyID]float64
	// DecidedAt records the virtual time of each decision.
	DecidedAt map[PartyID]Time
	// FinishTime is the virtual time of the last honest decision.
	FinishTime Time
	// MaxHonestDelay is the largest delay the scheduler imposed on a
	// message between two non-faulty parties. Round complexity of the
	// execution is FinishTime / MaxHonestDelay.
	MaxHonestDelay Time
	// Stats carries message accounting.
	Stats Stats
	// Honest lists the parties with no fault assignment, ascending.
	Honest []PartyID
}

// Rounds reports the asynchronous round complexity of the execution: the
// time of the last honest output divided by the maximum honest message
// delay, per the standard definition of asynchronous rounds.
func (r *Result) Rounds() float64 {
	if r.MaxHonestDelay <= 0 {
		return 0
	}
	return float64(r.FinishTime) / float64(r.MaxHonestDelay)
}

// HonestDecisions returns the decisions of non-faulty parties, sorted
// ascending by value.
func (r *Result) HonestDecisions() []float64 {
	out := make([]float64, 0, len(r.Honest))
	for _, p := range r.Honest {
		if v, ok := r.Decisions[p]; ok {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// Network is the discrete-event simulator. Create one with New, attach
// processes with SetProcess for every honest party, then call Run.
//
// A Network is resettable: Reset reconfigures it for a new execution while
// recycling every piece of run state — the event queue's arena, the payload
// blocks, the per-party records and the random sources. Every source is
// seeded lazily, on its first draw in a run, so a run whose scheduler and
// processes never draw pays no seeding. After a warm-up run of the same
// shape, a Reset + Run cycle performs zero steady-state heap allocations.
// Reset is provably equivalent to fresh construction (every field a run can
// observe is re-derived from the new Config), which the harness pins by
// comparing recycled and freshly-built experiment tables byte for byte.
type Network struct {
	cfg        Config
	parties    []*partyState // the run's parties: allParties[:cfg.N]
	allParties []*partyState // every party record ever built, for recycling
	queue      eventQueue
	batch      []tickEntry // reusable same-tick delivery batch (Run loop)
	env        Envelope    // scratch envelope every send fills for the scheduler
	rng        *rand.Rand  // the scheduler's source, over src
	src        lazySource
	now        Time
	seq        uint64
	stats      Stats
	finishTime Time

	// Hot per-party state lives in parallel flat arrays indexed by PartyID
	// (struct-of-arrays): the per-event loops touch only the field they
	// need, walking contiguous memory instead of chasing partyState
	// pointers — the cache-density move for n >= 256 sweeps. The partyState
	// records keep the cold identity (process, lazily seeded rand source).
	crashed    []bool
	faulty     []bool // any fault assignment (crash or byzantine)
	byz        []bool
	decided    []bool
	sendBudget []int // sends remaining before a crash fires; -1 = unlimited
	decision   []float64
	decidedAt  []Time

	// Batched tick delivery state (see batch.go): per-destination staging
	// of the tick's entry indices, the staged destinations in first-
	// appearance (Seq) order, the deferred send/timer ops, and the trigger
	// index of every delivery (for the tick-end observer replay and
	// completion repair).
	stage     [][]int32
	touched   []int32
	pend      []pendingOp
	delivTrig []int32
	deferOps  bool
	// curTrig is the trigger index of the tick entry being processed;
	// decideTrig is the largest trigger that produced an honest decision
	// this tick (-1 if none).
	curTrig    int32
	decideTrig int32
	// bat is the reusable Batch iterator handed to DeliverBatch.
	bat Batch
	// pendSorted and pendCount are flushPending's counting-sort scratch.
	pendSorted []pendingOp
	pendCount  []int32
	// arena snapshots every payload sent during the run.
	arena payloadArena

	maxHonestDelay Time
	pendingHonest  int // honest parties that have not decided yet

	// Crash-recovery state (see restart.go): the time-sorted action list
	// resolved from cfg.Restarts, the firing cursor, the per-plan snapshot
	// buffers (recycled across runs), and the digest log the incident
	// layer records.
	ractions    []restartAction
	rnext       int
	planSnaps   [][]byte
	ckptDigests []uint64

	// observer, when non-nil, is invoked after every delivery.
	observer func(now Time, env Envelope)
}

// arenaBlock is the payload arena's allocation granularity.
const arenaBlock = 1 << 16

// headerSize is the size of the send header in front of every arena
// payload: seq0 (uint64), sent (Time), from (int32) and the payload length
// (int32), little-endian.
const headerSize = 24

// payloadArena is a recycled block arena for message payloads: Send and
// Multicast snapshot the caller's bytes into the current block, so protocols
// encode into reusable scratch buffers and a multicast's n copies share
// one snapshot. A payload slice is valid only while its envelope is in
// flight (until the delivery callback returns): exhausted blocks are kept
// and recycled by reset, so memory is bounded by the peak per-run payload
// volume rather than churned per run.
//
// Each snapshot is a 24-byte send header followed by the payload, padded
// to 8 bytes. The header holds what a send's copies share: the sender, the
// payload length, the send tick (Sent) and seq0, the Seq of the copy to
// party 0, so that the copy to party to has Seq seq0+to. scheduleSend
// writes it once per send, with its first copy; a multicast's other copies
// and every duplicate share it. A queued tickEntry names the header by
// its handle, blk<<32 | off, so it holds no pointer. Blocks never move
// before reset, so a handle stays valid exactly as long as the slice
// snapshot returned with it.
type payloadArena struct {
	blocks [][]byte
	cur    []byte // blocks[blk], the block currently being carved
	blk    int    // index of cur; -1 before the first block exists
	off    int    // write offset into cur
}

// snapshot reserves a send header, copies data in behind it, and returns
// the full-slice copy of the payload (nil for an empty payload, which
// still gets a header) with the header's handle. The copy is
// capacity-clipped so appends can never bleed into the next snapshot.
// Block turnover is outlined in nextBlock, off the in-block fast path.
func (a *payloadArena) snapshot(data []byte) ([]byte, uint64) {
	need := headerSize + (len(data)+7)&^7
	if a.off+need > len(a.cur) {
		a.nextBlock(need)
	}
	ref := uint64(a.blk)<<32 | uint64(a.off)
	var buf []byte
	if len(data) > 0 {
		p := a.off + headerSize
		buf = a.cur[p : p+len(data) : p+len(data)]
		copy(buf, data)
	}
	a.off += need
	return buf, ref
}

// setHeader writes the send header of handle ref.
func (a *payloadArena) setHeader(ref, seq0 uint64, sent Time, from PartyID, n int) {
	off := uint32(ref)
	h := a.blocks[ref>>32][off : off+headerSize]
	binary.LittleEndian.PutUint64(h, seq0)
	binary.LittleEndian.PutUint64(h[8:], uint64(sent))
	binary.LittleEndian.PutUint32(h[16:], uint32(from))
	binary.LittleEndian.PutUint32(h[20:], uint32(n))
}

// message returns the sender and payload of the send header ref names; a
// payload of length zero is nil.
func (a *payloadArena) message(ref uint64) (PartyID, []byte) {
	b := a.blocks[ref>>32]
	off := uint32(ref)
	h := b[off : off+headerSize]
	from := PartyID(int32(binary.LittleEndian.Uint32(h[16:])))
	n := binary.LittleEndian.Uint32(h[20:])
	if n == 0 {
		return from, nil
	}
	p := off + headerSize
	return from, b[p : p+n : p+n]
}

// header returns the whole send header ref names: seq0, Sent, the sender
// and the payload.
func (a *payloadArena) header(ref uint64) (seq0 uint64, sent Time, from PartyID, data []byte) {
	off := uint32(ref)
	h := a.blocks[ref>>32][off : off+headerSize]
	from, data = a.message(ref)
	return binary.LittleEndian.Uint64(h), Time(binary.LittleEndian.Uint64(h[8:])), from, data
}

// payload rebuilds the capacity-clipped payload slice of handle ref and
// length n before its header is written; a payload of length zero is nil.
func (a *payloadArena) payload(ref uint64, n int32) []byte {
	if n <= 0 {
		return nil
	}
	p, end := uint32(ref)+headerSize, uint32(ref)+headerSize+uint32(n)
	return a.blocks[ref>>32][p:end:end]
}

// nextBlock advances cur to the next pooled block that fits need bytes,
// allocating (and pooling) a new block only when none does. Skipped blocks
// stay pooled for later runs.
func (a *payloadArena) nextBlock(need int) {
	for {
		a.blk++
		if a.blk >= len(a.blocks) {
			size := arenaBlock
			if need > size {
				size = need
			}
			a.blocks = append(a.blocks, make([]byte, size))
		}
		a.cur = a.blocks[a.blk]
		a.off = 0
		if need <= len(a.cur) {
			return
		}
	}
}

// reset rewinds the arena to reuse its pooled blocks for a new run.
func (a *payloadArena) reset() {
	a.off = 0
	if len(a.blocks) > 0 {
		a.blk, a.cur = 0, a.blocks[0]
	} else {
		a.blk, a.cur = -1, nil
	}
}

// partyState is a party's cold identity record and its API implementation.
// The hot flags and values (crashed/decided, send budget, decision) live in
// the Network's parallel arrays, indexed by id.
type partyState struct {
	id   PartyID
	proc Process
	net  *Network
	// rng is the party's random source over src, which Reset seeds from
	// partySeed and which seeds itself on its first draw: only parties that
	// draw (relnet jitter, the spam behavior, vector's child API) pay for
	// seeding, not every party of every run.
	rng *rand.Rand
	src lazySource
}

var _ API = (*partyState)(nil)

func (p *partyState) ID() PartyID      { return p.id }
func (p *partyState) N() int           { return p.net.cfg.N }
func (p *partyState) Rand() *rand.Rand { return p.rng }

// Send drops a send to a party outside [0, N) before it is counted,
// sequenced or charged to a crash budget, as livenet does.
func (p *partyState) Send(to PartyID, data []byte) {
	if to < 0 || int(to) >= p.net.cfg.N {
		return
	}
	buf, ref := p.net.arena.snapshot(data)
	p.net.send(p, to, buf, ref, true)
}

func (p *partyState) Multicast(data []byte) {
	// One snapshot shared by all n copies: the sender may reuse its buffer
	// immediately, and the n recipients alias a single payload and header.
	n := p.net
	buf, ref := n.arena.snapshot(data)
	if n.deferOps {
		// Batched tick in progress: the whole multicast coalesces into one
		// pending op (expanded recipient-by-recipient at the flush, in the
		// exact per-send order the unbatched loop produces). The crash
		// budget is settled here, at call time, with the unbatched
		// semantics: a budget smaller than the fan-out truncates the
		// multicast to the first sendBudget recipients and fires the crash.
		id := p.id
		if n.crashed[id] {
			return
		}
		k := n.cfg.N
		if bud := n.sendBudget[id]; bud >= 0 {
			if bud < k {
				k = bud
				n.crashed[id] = true
			}
			n.sendBudget[id] -= k
		}
		if k == 0 {
			return
		}
		n.stats.MessagesSent += k
		n.stats.BytesSent += k * len(buf)
		if !n.faulty[id] {
			n.stats.HonestMessagesSent += k
			n.stats.HonestBytesSent += k * len(buf)
		}
		n.pend = append(n.pend, pendingOp{ref: ref, n: int32(len(buf)), from: id, trig: n.curTrig, mcastTo: int32(k)})
		return
	}
	for to := 0; to < n.cfg.N; to++ {
		n.send(p, PartyID(to), buf, ref, to == 0)
	}
}

func (p *partyState) SetTimer(delay Time, tag uint64) {
	net := p.net
	if net.crashed[p.id] {
		return
	}
	if delay < 1 {
		delay = 1
	}
	if net.deferOps {
		net.pend = append(net.pend, pendingOp{
			from: p.id, delay: delay, ref: tag, n: -1, trig: net.curTrig,
		})
		return
	}
	net.scheduleTimer(p.id, delay, tag)
}

func (p *partyState) Decide(value float64) {
	net := p.net
	if net.decided[p.id] {
		return
	}
	net.decided[p.id] = true
	net.decision[p.id] = value
	net.decidedAt[p.id] = net.now
	if net.faulty[p.id] {
		return
	}
	net.pendingHonest--
	if net.now > net.finishTime {
		net.finishTime = net.now
	}
	if net.deferOps && net.curTrig > net.decideTrig {
		// Batched tick in progress: track the latest trigger that produced
		// an honest decision — if this tick completes the run, the unbatched
		// loop would have stopped exactly there (the mid-tick completion
		// repair in runTickBatched).
		net.decideTrig = net.curTrig
	}
}

// partySeed derives party i's deterministic random seed from the run seed.
func partySeed(seed int64, i int) int64 {
	return seed ^ (int64(i+1) * 0x7E3779B97F4A7C15)
}

// New builds a network from the configuration. Processes for honest parties
// must be attached with SetProcess before Run.
func New(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset reconfigures the network for a new execution, recycling the event
// queue, the payload arena, and the party records of earlier runs. It is
// observably equivalent to New(cfg): every run-visible field — virtual
// time, sequence counter, stats, party fault assignments, random sources —
// is re-derived from cfg. The scheduler's and the parties' sources are
// lazySources: Reset records their seeds, and each is seeded at most once
// per run, on its first draw, so it produces the stream a fresh
// construction would. Attached processes and the observer are cleared;
// reattach with SetProcess (and SetObserver) before Run.
func (n *Network) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.cfg = cfg
	if _, heap := n.queue.(*eventHeap); n.queue == nil || heap != cfg.Reference {
		n.queue = newEventQueue(cfg.Reference)
	} else {
		n.queue.Reset()
	}
	if n.rng == nil {
		n.rng = rand.New(&n.src)
	}
	n.rng.Seed(cfg.Seed)
	if cap(n.allParties) < cfg.N {
		grown := make([]*partyState, len(n.allParties), cfg.N)
		copy(grown, n.allParties)
		n.allParties = grown
	}
	for len(n.allParties) < cfg.N {
		ps := &partyState{id: PartyID(len(n.allParties)), net: n}
		ps.rng = rand.New(&ps.src)
		n.allParties = append(n.allParties, ps)
	}
	n.parties = n.allParties[:cfg.N]
	// Parties beyond the new N keep their records (and rand sources) for
	// later larger runs, but must not pin the previous run's process objects
	// (a Byzantine process graph can be sizable).
	for _, ps := range n.allParties[cfg.N:] {
		ps.proc = nil
	}
	n.resizeSoA(cfg.N)
	for i, ps := range n.parties {
		ps.rng.Seed(partySeed(cfg.Seed, i))
		ps.proc = nil
		n.faulty[i] = false
		n.byz[i] = false
		n.crashed[i] = false
		n.sendBudget[i] = -1
		n.decided[i] = false
		n.decision[i] = 0
		n.decidedAt[i] = 0
	}
	for _, cr := range cfg.Crashes {
		n.faulty[cr.Party] = true
		n.sendBudget[cr.Party] = cr.AfterSends
	}
	for id, proc := range cfg.Byzantine {
		n.faulty[id] = true
		n.byz[id] = true
		n.parties[id].proc = proc
	}
	n.resetRestarts()
	n.now = 0
	n.seq = 0
	n.stats = Stats{}
	n.finishTime = 0
	n.maxHonestDelay = 0
	n.pendingHonest = 0
	n.observer = nil
	// Batching scratch is empty between ticks by construction.
	n.pend = n.pend[:0]
	n.touched = n.touched[:0]
	n.delivTrig = n.delivTrig[:0]
	n.deferOps = false
	n.arena.reset()
	return nil
}

// resizeSoA (re)sizes the flat per-party state arrays and the batching
// stage to n parties, growing capacity geometrically and recycling it
// across runs like the party records themselves.
func (n *Network) resizeSoA(size int) {
	if cap(n.crashed) < size {
		n.crashed = make([]bool, size)
		n.faulty = make([]bool, size)
		n.byz = make([]bool, size)
		n.decided = make([]bool, size)
		n.sendBudget = make([]int, size)
		n.decision = make([]float64, size)
		n.decidedAt = make([]Time, size)
	}
	n.crashed = n.crashed[:size]
	n.faulty = n.faulty[:size]
	n.byz = n.byz[:size]
	n.decided = n.decided[:size]
	n.sendBudget = n.sendBudget[:size]
	n.decision = n.decision[:size]
	n.decidedAt = n.decidedAt[:size]
	if cap(n.stage) < size {
		grown := make([][]int32, size)
		copy(grown, n.stage[:cap(n.stage)])
		n.stage = grown
	}
	n.stage = n.stage[:size]
	for i := range n.stage {
		n.stage[i] = n.stage[i][:0]
	}
}

// SetProcess attaches the protocol state machine for a party. It must be
// called for every non-Byzantine party before Run. Attaching to a Byzantine
// party is an error: the adversarial process from the Config runs there.
func (n *Network) SetProcess(id PartyID, proc Process) error {
	if id < 0 || int(id) >= n.cfg.N {
		return fmt.Errorf("sim: SetProcess: party %d out of range [0,%d)", id, n.cfg.N)
	}
	if n.byz[id] {
		return fmt.Errorf("sim: SetProcess: party %d is Byzantine; its process comes from the config", id)
	}
	if proc == nil {
		return fmt.Errorf("sim: SetProcess: nil process for party %d", id)
	}
	n.parties[id].proc = proc
	return nil
}

// SetObserver installs a callback invoked after every delivery, used by the
// harness to record convergence trajectories. Pass nil to remove.
func (n *Network) SetObserver(fn func(now Time, env Envelope)) { n.observer = fn }

// Party returns the process attached to a party (nil if none). The harness
// uses this to query Estimator implementations.
func (n *Network) Party(id PartyID) Process {
	if id < 0 || int(id) >= n.cfg.N {
		return nil
	}
	return n.parties[id].proc
}

// Now exposes the current virtual time (used by observers and tests).
func (n *Network) Now() Time { return n.now }

// send settles a send's crash budget and stats and schedules it, or defers
// it during a batched tick; first is scheduleSend's.
func (n *Network) send(from *partyState, to PartyID, data []byte, ref uint64, first bool) {
	id := from.id
	if n.crashed[id] {
		return
	}
	if n.sendBudget[id] == 0 {
		// The crash plan fires: this send and everything after it is lost.
		n.crashed[id] = true
		return
	}
	if n.sendBudget[id] > 0 {
		n.sendBudget[id]--
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += len(data)
	if !n.faulty[id] {
		n.stats.HonestMessagesSent++
		n.stats.HonestBytesSent += len(data)
	}
	if n.deferOps {
		// Batched tick in progress: record the send tagged with the entry
		// being processed; Seq assignment and the delay draw happen in
		// trigger order at the tick-end flush (see batch.go).
		n.pend = append(n.pend, pendingOp{ref: ref, n: int32(len(data)), from: id, to: to, trig: n.curTrig})
		return
	}
	n.scheduleSend(id, to, data, ref, first)
}

// Run executes the simulation until every honest party has decided, the
// event queue drains (ErrStalled), or the event budget is exhausted
// (ErrEventBudget). It returns a Result in all cases; on error the Result
// reflects the partial execution, which tests use for diagnosis.
func (n *Network) Run() (*Result, error) {
	if err := n.checkProcs(); err != nil {
		return nil, err
	}
	res := &Result{}
	return res, n.runInto(res)
}

func (n *Network) checkProcs() error {
	for _, ps := range n.parties {
		if ps.proc == nil {
			return fmt.Errorf("sim: party %d has no process attached", ps.id)
		}
	}
	return nil
}

// RunInto is Run writing its outcome into a caller-owned Result, whose maps
// and slices are reused when already allocated — the allocation-free form
// the recycled harness contexts use. The Result reflects the execution
// (partial on ErrStalled/ErrEventBudget); it is left untouched when a party
// has no process attached.
func (n *Network) RunInto(res *Result) error {
	if err := n.checkProcs(); err != nil {
		return err
	}
	return n.runInto(res)
}

// runInto is the shared execution body; callers have already checkProcs'd.
func (n *Network) runInto(res *Result) error {
	n.pendingHonest = 0
	for i := range n.faulty {
		if !n.faulty[i] {
			n.pendingHonest++
		}
	}
	// Init in ID order at time zero; Init-time sends are scheduled normally.
	for _, ps := range n.parties {
		ps.proc.Init(ps)
	}
	budget := n.cfg.MaxEvents
	if budget <= 0 {
		budget = DefaultMaxEvents
	}
	err := n.runLoop(budget)
	n.resultInto(res)
	return err
}

// runLoop is the one run loop. It drains the queue one virtual-time tick at
// a time: PopTick hands over every entry of the earliest tick in one batch
// (delays are >= 1, so deliveries can never append to the tick in flight).
// A tick runs through one of two bodies, observably identical (batch.go):
// runTickUnbatched, the per-envelope body in (at, Seq) order, and
// runTickBatched, which groups a dense tick by destination. The reference
// configuration takes the per-envelope body for every tick. Production
// takes it for sparse ticks, where grouping gains nothing, and for the tick
// in which the event budget can trip, so that the aborted prefix is event
// for event the reference one.
func (n *Network) runLoop(budget int) error {
	var err error
	events := 0
	batch := n.batch[:0]
	for n.pendingHonest > 0 {
		if n.queue.Len() == 0 {
			// A pending restart can revive a drained run: a rejoin re-sends,
			// so the stall verdict is only final once no actions remain.
			if n.restartsPending() {
				if err = n.advanceToRestart(); err != nil {
					break
				}
				continue
			}
			err = ErrStalled
			break
		}
		batch, n.now = n.queue.PopTick(batch[:0])
		if n.restartsPending() {
			if err = n.fireRestarts(); err != nil {
				break
			}
		}
		if n.cfg.Reference || len(batch) < batchTickMin || events+len(batch) > budget {
			if err = n.runTickUnbatched(batch, &events, budget); err != nil {
				break
			}
			continue
		}
		events += len(batch)
		n.runTickBatched(batch)
	}
	n.batch = batch[:0]
	return err
}

// resultInto fills res from the finished (or aborted) execution, reusing
// its maps and slices when present.
func (n *Network) resultInto(res *Result) {
	if res.Decisions == nil {
		res.Decisions = make(map[PartyID]float64)
	} else {
		clear(res.Decisions)
	}
	if res.DecidedAt == nil {
		res.DecidedAt = make(map[PartyID]Time)
	} else {
		clear(res.DecidedAt)
	}
	res.Honest = res.Honest[:0]
	res.FinishTime = n.finishTime
	res.MaxHonestDelay = n.maxHonestDelay
	res.Stats = n.stats
	for i := 0; i < n.cfg.N; i++ {
		id := PartyID(i)
		if n.decided[i] {
			res.Decisions[id] = n.decision[i]
			res.DecidedAt[id] = n.decidedAt[i]
		}
		if !n.faulty[i] {
			res.Honest = append(res.Honest, id)
		}
	}
}
