package livenet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkMailbox is the livenet layer on its own: k pushers insert b.N
// items, all due at once, into one mailbox while its owner takes batches
// and, finding nothing, sleeps on the wake token as a party's loop does.
// One op is one item pushed and taken (or shed), so ns/op is the mailbox's
// cost per message, both sides' locking included, and allocs/op its
// allocations per message once the slab, heap and batch have grown.
func BenchmarkMailbox(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("pushers-%d", k), func(b *testing.B) {
			m := newTestMailbox(4096)
			payload := make([]byte, 14)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := range k {
				wg.Add(1)
				go func() {
					defer wg.Done()
					it := item{from: sim.PartyID(p), data: payload}
					for i := p; i < b.N; i += k {
						m.push(0, 0, it)
					}
				}()
			}
			var batch []uint32
			var taken, takes int64
			for {
				batch, _, _ = m.take(time.Hour, batch)
				taken += int64(len(batch))
				takes++
				m.mu.Lock()
				all := taken+m.shed == int64(b.N)
				m.mu.Unlock()
				if all {
					break
				}
				if len(batch) == 0 {
					<-m.wake
				}
			}
			wg.Wait()
			b.ReportMetric(float64(taken)/float64(takes), "items/take")
		})
	}
}
