package soc

import (
	"testing"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
)

// graphs caches DDDGs across integration tests.
var graphCache = map[string]*ddg.Graph{}

func kernelGraph(t testing.TB, name string) *ddg.Graph {
	t.Helper()
	if g, ok := graphCache[name]; ok {
		return g
	}
	k, err := machsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := ddg.Build(tr)
	graphCache[name] = g
	return g
}

// TestAllKernelsAllMemorySystems is the end-to-end smoke test: every
// MachSuite kernel completes under every memory system and produces a
// self-consistent result.
func TestAllKernelsAllMemorySystems(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	for _, name := range machsuite.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := kernelGraph(t, name)
			for _, kind := range []MemKind{Isolated, DMA, Cache} {
				cfg := DefaultConfig()
				cfg.Mem = kind
				r, err := Run(Compile(g), cfg)
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if r.Runtime == 0 {
					t.Fatalf("%v: zero runtime", kind)
				}
				if r.Breakdown.Total() != r.Runtime {
					t.Fatalf("%v: breakdown %v != runtime %v",
						kind, r.Breakdown.Total(), r.Runtime)
				}
				if r.Energy.Total() <= 0 {
					t.Fatalf("%v: no energy", kind)
				}
				// Every issued op count matches the trace: the schedule
				// executed each node exactly once.
				var issued uint64
				for _, c := range r.Datapath.OpsIssued {
					issued += c
				}
				if issued != uint64(g.NumNodes()) {
					t.Fatalf("%v: issued %d ops, trace has %d", kind, issued, g.NumNodes())
				}
			}
		})
	}
}

// TestPaperShapeDataMovementBound reproduces the Fig 2b claim: at 16-lane
// parallelism with baseline DMA, a substantial share of MachSuite spends
// most of its time on data movement.
func TestPaperShapeDataMovementBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	moveBound := 0
	total := 0
	for _, name := range machsuite.Names() {
		g := kernelGraph(t, name)
		cfg := DefaultConfig()
		cfg.Lanes, cfg.Partitions = 16, 16
		cfg.PipelinedDMA, cfg.DMATriggered = false, false
		r, err := Run(Compile(g), cfg)
		if err != nil {
			t.Fatal(err)
		}
		move := r.Breakdown.FlushOnly + r.Breakdown.DMAFlush
		total++
		if move > r.Runtime/2 {
			moveBound++
		}
		t.Logf("%-20s move %5.1f%% of %s", name,
			100*float64(move)/float64(r.Runtime), r.Runtime)
	}
	// Paper: "about half of them are compute-bound and the other half
	// data-movement-bound". Accept a broad band.
	if moveBound < total/4 {
		t.Fatalf("only %d of %d kernels data-movement-bound", moveBound, total)
	}
}

// TestPaperShapeMdKnnOverlap reproduces the Sec IV-C1 claim: with ready
// bits, md-knn achieves near-complete compute/DMA overlap at 4 lanes.
func TestPaperShapeMdKnnOverlap(t *testing.T) {
	g := kernelGraph(t, "md-knn")
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Partitions = 4, 4
	r, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6a's md-knn bar: after both optimizations, the cycles where data
	// movement runs without compute are a small sliver of total runtime —
	// everything after the first neighbor-list bytes arrive overlaps.
	exposed := float64(r.Breakdown.DMAFlush + r.Breakdown.FlushOnly)
	frac := exposed / float64(r.Runtime)
	t.Logf("md-knn exposed movement: %.1f%% of runtime", 100*frac)
	if frac > 0.10 {
		t.Fatalf("md-knn exposes %.0f%% movement; paper shows near-full overlap", 100*frac)
	}
	if r.Breakdown.ComputeDMA == 0 {
		t.Fatal("no compute/DMA overlap at all")
	}
}

// TestPaperShapeFFTTriggeredIneffective reproduces the Sec IV-C1 claim:
// DMA-triggered compute barely helps fft-transpose (strided accesses need
// nearly all data).
func TestPaperShapeFFTTriggeredIneffective(t *testing.T) {
	g := kernelGraph(t, "fft-transpose")
	base := DefaultConfig()
	base.Lanes, base.Partitions = 4, 4
	base.DMATriggered = false
	r0, err := Run(Compile(g), base)
	if err != nil {
		t.Fatal(err)
	}
	trig := base
	trig.DMATriggered = true
	r1, err := Run(Compile(g), trig)
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(r0.Runtime-r1.Runtime) / float64(r0.Runtime)
	// stencil2d, by contrast, gains a lot.
	g2 := kernelGraph(t, "stencil-stencil2d")
	s0, err := Run(Compile(g2), base)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Run(Compile(g2), trig)
	if err != nil {
		t.Fatal(err)
	}
	gain2 := float64(s0.Runtime-s1.Runtime) / float64(s0.Runtime)
	t.Logf("triggered-compute gain: fft %.1f%%, stencil2d %.1f%%", 100*gain, 100*gain2)
	if gain2 <= gain {
		t.Fatalf("stencil2d gain (%.1f%%) should exceed fft gain (%.1f%%)",
			100*gain2, 100*gain)
	}
}

// TestPaperShapeSerialKernelNoSpeedup reproduces the Fig 6b claim for nw:
// parallelism does not help serial kernels.
func TestPaperShapeSerialKernelNoSpeedup(t *testing.T) {
	g := kernelGraph(t, "nw-nw")
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Partitions = 1, 1
	r1, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lanes, cfg.Partitions = 16, 16
	r16, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Runtime) / float64(r16.Runtime)
	// Row-internal dependences let adjacent lanes pipeline slightly, so a
	// little under 2x is expected — nothing like the 16x of parallel
	// kernels.
	if speedup > 2.5 {
		t.Fatalf("nw sped up %.2fx with 16 lanes; should be nearly serial", speedup)
	}
}
