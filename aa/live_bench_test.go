package aa

import (
	"context"
	"testing"
	"time"

	"repro/internal/harness"
)

// BenchmarkRunLive is the repository benchmark's live op through the public
// API: a crash run at n=32, t=10 with up to 200 µs of jitter per message,
// about 10 240 messages. Run with -memprofile and -memprofilerate 1, its
// allocation profile is the live op's allocation breakdown (PERF.md
// § "Recycled live runs" gives the command).
func BenchmarkRunLive(b *testing.B) {
	cfg := Config{Model: ModelCrash, N: 32, T: 10, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := harness.UniformInputs(cfg.N, 0, 1, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := RunLive(ctx, cfg, inputs, LiveOptions{MaxJitter: 200 * time.Microsecond, Seed: int64(i)})
		cancel()
		if err != nil || !out.OK() {
			b.Fatalf("run %d: %v, outcome %+v", i, err, out)
		}
	}
}
