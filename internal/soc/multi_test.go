package soc

import (
	"testing"

	"gem5aladdin/internal/sim"
)

func TestRunMultiSingleMatchesRun(t *testing.T) {
	g := streamKernel(256)
	cfg := DefaultConfig()
	solo, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti([]*Compiled{Compile(g)}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != 1 {
		t.Fatalf("results = %d", len(multi.Results))
	}
	if multi.Results[0].Runtime != solo.Runtime {
		t.Fatalf("single-accelerator RunMulti %v != Run %v",
			multi.Results[0].Runtime, solo.Runtime)
	}
	if multi.Makespan != solo.Runtime {
		t.Fatalf("makespan %v != runtime %v", multi.Makespan, solo.Runtime)
	}
}

func TestRunMultiContention(t *testing.T) {
	g := streamKernel(2048)
	cfg := DefaultConfig()
	solo, err := Run(Compile(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical DMA accelerators sharing the bus must each run
	// slower than alone, and combined DMA bytes must double.
	multi, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range multi.Results {
		if r.Runtime <= solo.Runtime {
			t.Fatalf("accelerator %d ran as fast under contention (%v vs %v)",
				i, r.Runtime, solo.Runtime)
		}
	}
	if multi.Makespan < multi.Results[0].Runtime || multi.Makespan < multi.Results[1].Runtime {
		t.Fatal("makespan below an individual runtime")
	}
	// Fabric-wide bus stats include both accelerators' traffic.
	soloBytes := solo.Bus.BytesMoved
	if multi.Results[0].Bus.BytesMoved < 2*soloBytes {
		t.Fatalf("shared bus moved %d bytes, want >= %d",
			multi.Results[0].Bus.BytesMoved, 2*soloBytes)
	}
}

func TestRunMultiMixedMemorySystems(t *testing.T) {
	g1 := streamKernel(512)
	g2 := streamKernel(512)
	dmaCfg := DefaultConfig()
	cacheCfg := DefaultConfig()
	cacheCfg.Mem = Cache
	multi, err := RunMulti([]*Compiled{Compile(g1), Compile(g2)}, []Config{dmaCfg, cacheCfg})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Results[0].DMA.BytesMoved == 0 {
		t.Fatal("DMA accelerator moved nothing")
	}
	if multi.Results[1].Cache.Accesses == 0 {
		t.Fatal("cache accelerator never accessed its cache")
	}
	// Distinct physical windows: combined DRAM traffic reflects both.
	if multi.Results[0].DRAM.BytesMoved <= multi.Results[0].DMA.BytesMoved/2 {
		t.Fatal("DRAM traffic implausibly low")
	}
}

func TestRunMultiTwoCaches(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Mem = Cache
	multi, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Each accelerator pulls its own window's dirty lines from the CPU:
	// both see cache-to-cache fills and none steal the other's lines.
	for i, r := range multi.Results {
		if r.Cache.C2CFills == 0 {
			t.Fatalf("accelerator %d: no coherent fills", i)
		}
		if r.Cache.Misses == 0 {
			t.Fatalf("accelerator %d: no misses", i)
		}
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	a, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].Runtime != b.Results[i].Runtime {
			t.Fatalf("accelerator %d nondeterministic", i)
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	g := streamKernel(64)
	if _, err := RunMulti(nil, nil); err == nil {
		t.Fatal("empty RunMulti accepted")
	}
	if _, err := RunMulti([]*Compiled{Compile(g)}, []Config{DefaultConfig(), DefaultConfig()}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	bad := DefaultConfig()
	bad.Lanes = 0
	if _, err := RunMulti([]*Compiled{Compile(g)}, []Config{bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunMultiWithBackgroundTraffic(t *testing.T) {
	g := streamKernel(512)
	cfg := DefaultConfig()
	cfg.Traffic = &TrafficConfig{Period: 500 * sim.Nanosecond, Bytes: 128}
	multi, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	quietCfg := DefaultConfig()
	quiet, err := RunMulti([]*Compiled{Compile(g), Compile(g)}, []Config{quietCfg, quietCfg})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan <= quiet.Makespan {
		t.Fatal("background traffic did not slow the pair")
	}
}

func TestCoherentDMAEndToEnd(t *testing.T) {
	g := streamKernel(2048)
	sw := DefaultConfig()
	swRes, err := Run(Compile(g), sw)
	if err != nil {
		t.Fatal(err)
	}
	hw := DefaultConfig()
	hw.CoherentDMA = true
	hwRes, err := Run(Compile(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	if hwRes.Runtime >= swRes.Runtime {
		t.Fatalf("coherent DMA (%v) not faster than software coherence (%v)",
			hwRes.Runtime, swRes.Runtime)
	}
	if hwRes.Breakdown.FlushOnly != 0 {
		t.Fatal("coherent DMA still shows flush time")
	}
	if hwRes.DMA.LinesFlushed != 0 {
		t.Fatal("coherent DMA flushed lines")
	}
}

func TestRunRepeatedCacheAmortizes(t *testing.T) {
	g := streamKernel(1024)
	cfg := DefaultConfig()
	cfg.Mem = Cache
	// Inputs reused (resident coefficient table scenario): later rounds
	// must be much faster than the cold first round.
	reuse, err := RunRepeated(Compile(g), cfg, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reuse.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(reuse.Rounds))
	}
	if reuse.SteadyState() >= reuse.Rounds[0] {
		t.Fatalf("steady state (%v) not faster than cold round (%v)",
			reuse.SteadyState(), reuse.Rounds[0])
	}
	if float64(reuse.SteadyState()) > 0.8*float64(reuse.Rounds[0]) {
		t.Fatalf("warm cache amortized too little: %v vs %v",
			reuse.SteadyState(), reuse.Rounds[0])
	}

	// Fresh inputs every round: the CPU re-dirties its lines, so every
	// round pays coherent refills and stays near the cold cost.
	fresh, err := RunRepeated(Compile(g), cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if float64(fresh.SteadyState()) < 0.7*float64(fresh.Rounds[0]) {
		t.Fatalf("fresh inputs should not amortize: %v vs %v",
			fresh.SteadyState(), fresh.Rounds[0])
	}
	// And the reused-inputs steady state beats the fresh-inputs one.
	if reuse.SteadyState() >= fresh.SteadyState() {
		t.Fatalf("reuse steady state %v not below fresh %v",
			reuse.SteadyState(), fresh.SteadyState())
	}
}

func TestRunRepeatedDMAConstant(t *testing.T) {
	g := streamKernel(1024)
	cfg := DefaultConfig()
	rr, err := RunRepeated(Compile(g), cfg, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// DMA pays the full transfer every round; all rounds within 5%.
	for i := 1; i < len(rr.Rounds); i++ {
		ratio := float64(rr.Rounds[i]) / float64(rr.Rounds[0])
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("DMA round %d = %v vs round 0 = %v", i, rr.Rounds[i], rr.Rounds[0])
		}
	}
	if rr.Final.Runtime != rr.Total {
		t.Fatal("final runtime != total")
	}
}

func TestRunRepeatedValidation(t *testing.T) {
	g := streamKernel(64)
	if _, err := RunRepeated(Compile(g), DefaultConfig(), 0, false); err == nil {
		t.Fatal("zero invocations accepted")
	}
}
