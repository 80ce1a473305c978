package ppa

// The benchmark harness: one testing.B per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment and reports the
// figure's headline statistic via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the whole paper-vs-measured story. cmd/ppabench renders the same
// experiments as full per-application tables.

import (
	"testing"

	"ppa/internal/checkpoint"
)

// benchInsts keeps a full -bench=. sweep tractable on one CPU while still
// exercising every experiment end to end. Use cmd/ppabench -insts for
// higher resolution.
const benchInsts = 10_000

func BenchmarkFig01ReplayCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig01(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.GMean, "gmean-slowdown")
	}
}

func BenchmarkFig05FreeRegCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig05(benchInsts / 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Int)+len(r.FP)), "cdf-series")
	}
}

func BenchmarkFig08RuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig08(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PPA.GMean, "ppa-gmean")
		b.ReportMetric(r.Capri.GMean, "capri-gmean")
	}
}

func BenchmarkFig09VsDRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig09(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PPA.GMean, "ppa-vs-dram")
		b.ReportMetric(r.MemoryMode.GMean, "memmode-vs-dram")
	}
}

func BenchmarkFig10VsPSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig10(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PPA.GMean, "ppa-gmean")
		b.ReportMetric(r.PSP.GMean, "psp-gmean")
	}
}

func BenchmarkFig11RegionStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig11(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.GMean, "mean-stall-pct")
	}
}

func BenchmarkFig12PRFPressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig12(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.GMean, "mean-extra-stall-pct")
	}
}

func BenchmarkFig13RegionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig13(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgStores, "stores-per-region")
		b.ReportMetric(r.AvgOthers, "others-per-region")
	}
}

func BenchmarkFig14DeepHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig14(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.GMean, "ppa-l3-gmean")
	}
}

func BenchmarkFig15WPQSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig15(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].GMean, "wpq8-gmean")
		b.ReportMetric(pts[1].GMean, "wpq16-gmean")
	}
}

func BenchmarkFig16PRFSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig16(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].GMean, "rf80-gmean")
		b.ReportMetric(pts[4].GMean, "rf-default-gmean")
	}
}

func BenchmarkFig17CSQSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig17(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].GMean, "csq10-gmean")
		b.ReportMetric(pts[3].GMean, "csq40-gmean")
	}
}

func BenchmarkFig18BWSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig18(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].GMean, "1gbps-gmean")
		b.ReportMetric(pts[1].GMean, "default-gmean")
	}
}

func BenchmarkFig19ThreadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Fig19(benchInsts / 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].GMean, "8t-gmean")
		b.ReportMetric(pts[len(pts)-1].GMean, "64t-gmean")
	}
}

func BenchmarkTab04HWCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costs := Table4()
		var area float64
		for _, c := range costs {
			area += c.AreaUM2
		}
		b.ReportMetric(area, "total-um2")
		b.ReportMetric(Table4ArealOverhead()*100, "core-area-pct")
	}
}

func BenchmarkTab05Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table5()
		b.ReportMetric(r.Rows[0].EnergyUJ, "ppa-uj")
		b.ReportMetric(r.Rows[1].EnergyUJ, "capri-uj")
		b.ReportMetric(r.ReadTimeNS, "ckpt-read-ns")
	}
}

// --- Ablation benches (DESIGN.md section 6) ---

func BenchmarkAblationSyncPersist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationSyncPersist(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
		b.ReportMetric(r.PPAGMean, "ppa-gmean")
	}
}

func BenchmarkAblationStrictBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationStrictBarrier(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
	}
}

func BenchmarkAblationNoCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationNoCoalescing(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
	}
}

func BenchmarkAblationMaskAllOperands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationMaskAllOperands(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
	}
}

func BenchmarkAblationValueCSQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationValueCSQ(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
	}
}

// --- Microbenchmarks of the core machinery ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Raw simulation speed: instructions per wall-second for one PPA core.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.SetBytes(50_000)
}

func BenchmarkCheckpointEncode(b *testing.B) {
	sys, err := NewSystem(RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 20_000})
	if err != nil {
		b.Fatal(err)
	}
	sys.RunUntil(30_000)
	im := new(checkpoint.Image)
	im.CaptureFrom(sys.Cores()[0])
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob := im.Encode()
		b.SetBytes(int64(len(blob)))
	}
}

func BenchmarkCrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := RunWithFailure(RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 15_000}, 25_000)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Completed && out.Inconsistencies != 0 {
			b.Fatal("inconsistent recovery")
		}
	}
}

func BenchmarkAblationSBGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := AblationSBGate(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AblGMean, "ablated-gmean")
		b.ReportMetric(r.PPAGMean, "ppa-gmean")
	}
}

func BenchmarkWriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := WriteAmplification(benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		var ppaAmp, rcAmp float64
		for _, r := range rows {
			ppaAmp += r.PPAOverBaseline
			rcAmp += r.RCOverPPA
		}
		b.ReportMetric(ppaAmp/float64(len(rows)), "ppa-over-baseline")
		b.ReportMetric(rcAmp/float64(len(rows)), "rc-over-ppa")
	}
}

func BenchmarkInOrderVariant(b *testing.B) {
	// Section 6: PPA's overhead on an in-order core with a value-bearing
	// CSQ, versus the in-order baseline.
	for i := 0; i < b.N; i++ {
		res, err := RunInOrder("sjeng", 20_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slowdown, "inorder-ppa-slowdown")
		b.ReportMetric(res.IPC, "inorder-ipc")
	}
}
