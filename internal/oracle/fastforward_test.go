package oracle

import (
	"testing"

	"ppa/internal/isa"
	"ppa/internal/workload"
)

// BenchmarkFastForward fast-forwards what one window of a sampled run of
// gcc or mcf skips (1M instructions, window 50k, period 1M): the engine
// first catches up through the window, writing the NVM image, then
// fast-forwards the 950k instructions past it with the image and a warm-up
// model, as multicore's SampledSystem.RunWindow does. Only the second call
// is timed, and reported per instruction.
func BenchmarkFastForward(b *testing.B) {
	const insts, window = 1_000_000, 50_000
	for _, app := range []string{"gcc", "mcf"} {
		b.Run(app, func(b *testing.B) {
			p, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			w, err := workload.New(p, insts)
			if err != nil {
				b.Fatal(err)
			}
			m := New(w.Threads, nil)
			img := isa.NewMapMemory()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Reset(w.Threads, nil)
				img.Reset()
				if err := m.FastForward(0, window, img, nil); err != nil {
					b.Fatal(err)
				}
				warm := NewWarmth(0)
				b.StartTimer()
				if err := m.FastForward(0, insts, img, warm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(insts-window), "ns/inst")
		})
	}
}
