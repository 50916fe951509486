package hostsim

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkChunkedTransfer measures the chunked demand-fetch path: one
// 10 MiB DRAM->VRAM transfer (40 chunks of 256 KiB) per op, with one reader
// waiting for the whole range. Its allocs/op shows any return of per-chunk
// allocation or per-chunk reader wakeups.
func BenchmarkChunkedTransfer(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := HighEndDesktop(env)
	const size = 10 * MiB
	n := b.N
	env.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			m.CopyChunkedStart(m.DRAM, m.VRAM, size, EnabledFetch()).WaitRange(p, size)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
