package sim_test

// End-to-end dispatch benchmarks: a full soc.Run over real MachSuite
// kernels, so engine changes are measured under the production event mix
// (bus arbitration, DRAM banking, DMA descriptors, datapath ticks) rather
// than only the synthetic self-rescheduling chain in bench_test.go. These
// live in an external test package because internal/sim cannot import
// internal/soc without a cycle.
//
// The numbers recorded in BENCH_sim.json come from:
//
//	go test ./internal/sim/ -bench . -benchmem

import (
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/soc"
)

func benchRun(b *testing.B, bench string, mem soc.MemKind) {
	b.Helper()
	k, err := machsuite.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := k.Build()
	if err != nil {
		b.Fatal(err)
	}
	g := ddg.Build(tr)
	cfg := soc.DefaultConfig()
	cfg.Mem = mem
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := soc.Run(soc.Compile(g), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
		}
	}
}

func BenchmarkDispatchGemmDMA(b *testing.B)    { benchRun(b, "gemm-ncubed", soc.DMA) }
func BenchmarkDispatchGemmCache(b *testing.B)  { benchRun(b, "gemm-ncubed", soc.Cache) }
func BenchmarkDispatchStencilDMA(b *testing.B) { benchRun(b, "stencil-stencil2d", soc.DMA) }
func BenchmarkDispatchFFTCache(b *testing.B)   { benchRun(b, "fft-transpose", soc.Cache) }
