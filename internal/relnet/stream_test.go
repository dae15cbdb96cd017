package relnet

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// apiRecorder folds every call the wrappers make into the runtime's
// sim.API into one FNV-1a hash, in call order: each Send's caller,
// destination and bytes, each SetTimer's caller and delay, and each
// Rand fetch. Timer tags are opaque to the runtime and left out, so
// the hash pins exactly what the simulator can observe.
type apiRecorder struct {
	h   hash.Hash64
	buf []byte
}

func newAPIRecorder() *apiRecorder { return &apiRecorder{h: fnv.New64a()} }

func (r *apiRecorder) write(op byte, words ...uint64) {
	r.buf = append(r.buf[:0], op)
	for _, w := range words {
		r.buf = binary.LittleEndian.AppendUint64(r.buf, w)
	}
	r.h.Write(r.buf)
}

// recordingAPI is the runtime's API seen through an apiRecorder.
type recordingAPI struct {
	sim.API
	rec *apiRecorder
}

func (a *recordingAPI) Send(to sim.PartyID, data []byte) {
	a.rec.write('S', uint64(a.ID()), uint64(to), uint64(len(data)))
	a.rec.h.Write(data)
	a.API.Send(to, data)
}

func (a *recordingAPI) Multicast(data []byte) {
	a.rec.write('M', uint64(a.ID()), uint64(len(data)))
	a.rec.h.Write(data)
	a.API.Multicast(data)
}

func (a *recordingAPI) SetTimer(delay sim.Time, tag uint64) {
	a.rec.write('T', uint64(a.ID()), uint64(delay))
	a.API.SetTimer(delay, tag)
}

func (a *recordingAPI) Rand() *rand.Rand {
	a.rec.write('R', uint64(a.ID()))
	return a.API.Rand()
}

// recordingProc hands a wrapper the runtime's API through a recorder.
// It embeds *Proc for Deliver and OnTimer, and like Proc it has no
// DeliverBatch, so the simulator drives it one envelope at a time.
type recordingProc struct {
	*Proc
	rec *apiRecorder
}

func (r *recordingProc) Init(api sim.API) { r.Proc.Init(&recordingAPI{API: api, rec: r.rec}) }

// TestAPIStreamPinned pins relnet's whole conversation with the runtime
// on the lossy chatter run: every Send (destination and bytes), every
// SetTimer delay and every Rand fetch, in order, plus each party's final
// TransportStats. Those calls are all the simulator sees of relnet, so a
// change to relnet's internals that keeps this hash keeps golden.json,
// the incident bundles and every E-table.
func TestAPIStreamPinned(t *testing.T) {
	const n, k = 6, 8
	// Recorded against the map-based wrapper this package replaced.
	want := map[int64]uint64{
		1:  0x5d83e126a974bf03,
		7:  0x0d8f1222895ad652,
		42: 0xb790f4aaf66fa392,
	}
	for _, seed := range []int64{1, 7, 42} {
		rec := newAPIRecorder()
		wrapped, _ := runChatter(t, n, k, seed, lossyChatter(), rec)
		for _, w := range wrapped {
			st := w.TransportStats()
			rec.write('X', uint64(st.DataSent), uint64(st.Retransmits), uint64(st.AcksSent),
				uint64(st.DupsSuppressed), uint64(st.GiveUps))
		}
		if got := rec.h.Sum64(); got != want[seed] {
			t.Errorf("seed %d: API stream hash %#x, want %#x", seed, got, want[seed])
		}
	}
}
