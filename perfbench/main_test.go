package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

func TestSweepGridIsSeeded(t *testing.T) {
	a, b, c := sweepGrid(7), sweepGrid(7), sweepGrid(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sweep grids")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same sweep grid")
	}
	// The seed must not change what the grid costs: one point per
	// (kernel, memory, lanes, fabric) cell, one per fabric under traffic,
	// and every secondary value used equally often.
	for _, g := range [][]gridCall{a, c} {
		if len(g) != 38 {
			t.Fatalf("%d calls, want 19 kernels x 2 memories", len(g))
		}
		for _, call := range g {
			cells := map[[2]int]bool{}
			secondary := map[int]int{}
			traffic := 0
			for _, cfg := range call.Cfgs {
				if cfg.Validate() != nil {
					t.Fatalf("%s: invalid point %+v", call.Kernel, cfg)
				}
				cells[[2]int{cfg.Lanes, int(cfg.Fabric.Kind)}] = true
				if call.Mem == soc.DMA {
					secondary[cfg.Partitions]++
				} else {
					secondary[cfg.CacheKB]++
				}
				if cfg.Traffic != nil {
					traffic++
				}
			}
			if len(cells) != 15 || len(call.Cfgs) != 15 || traffic != 3 {
				t.Fatalf("%s/%s: %d cells, %d points, %d with traffic",
					call.Kernel, call.Mem, len(cells), len(call.Cfgs), traffic)
			}
			for v, n := range secondary {
				if n != 3 {
					t.Fatalf("%s/%s: secondary value %d used %d times, want 3", call.Kernel, call.Mem, v, n)
				}
			}
		}
	}
}

func TestSearchCasesAreSeeded(t *testing.T) {
	a, b, c := searchCases(3), searchCases(3), searchCases(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different searches")
	}
	for i := range a {
		if a[i].Seed == c[i].Seed {
			t.Fatalf("search %d: seed %d under both workload seeds", i, a[i].Seed)
		}
	}
}

func TestServePlanIsSeeded(t *testing.T) {
	a, err := makeServePlan(11, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeServePlan(11, 400)
	c, _ := makeServePlan(12, 400)
	bodies := func(p *servePlan) (out []string, fresh []bool) {
		for _, r := range p.Requests {
			out = append(out, string(r.Body))
			fresh = append(fresh, r.Fresh)
		}
		return out, fresh
	}
	ab, af := bodies(a)
	bb, bf := bodies(b)
	cb, cf := bodies(c)
	if !reflect.DeepEqual(ab, bb) || !reflect.DeepEqual(af, bf) {
		t.Fatal("same seed gave different request bodies or hit/miss mix")
	}
	if reflect.DeepEqual(ab, cb) || reflect.DeepEqual(af, cf) {
		t.Fatal("different seeds gave the same requests")
	}
	// The warm pool is simulated during set-up, so it must not depend on
	// the seed.
	for i := range a.Warm {
		if !bytes.Equal(a.Warm[i].Body, c.Warm[i].Body) || a.Warm[i].Points != 1 {
			t.Fatalf("warm request %d differs between seeds or is not one point", i)
		}
	}

	// Repeats are byte-identical warm bodies; fresh requests never share a
	// design point with anything sent before them.
	warm := map[string]bool{}
	seen := map[string]bool{}
	for _, w := range a.Warm {
		warm[string(w.Body)] = true
		for _, k := range w.Keys {
			seen[k] = true
		}
	}
	hits := 0
	var kernels []string
	for i, r := range a.Requests {
		if r.Points < 1 || r.Points > 4 {
			t.Fatalf("request %d has %d points", i, r.Points)
		}
		if !r.Fresh {
			hits++
			if !warm[string(r.Body)] {
				t.Fatalf("request %d repeats no warm body", i)
			}
			continue
		}
		for _, k := range r.Keys {
			if seen[k] {
				t.Fatalf("fresh request %d repeats point %s", i, k[:12])
			}
			seen[k] = true
		}
		kernels = append(kernels, r.Req.Kernel)
	}
	// Every run of 19 fresh requests covers every kernel once.
	for i := 0; i+19 <= len(kernels); i += 19 {
		once := map[string]bool{}
		for _, k := range kernels[i : i+19] {
			once[k] = true
		}
		if len(once) != 19 {
			t.Fatalf("fresh requests %d..%d cover %d kernels", i, i+18, len(once))
		}
	}
	if share := float64(hits) / float64(len(a.Requests)); math.Abs(share-serveHitShare) > 0.06 {
		t.Fatalf("hit share %.3f, want about %.2f", share, serveHitShare)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9.99 beyond it and must be refused")
	}
	xs = append(xs, 1000)
	p, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", p)
	}
	if p, err := percentile(xs[:20], 50); err != nil || p != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v", p, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestFrontHVNormalisation(t *testing.T) {
	pt := func(us, watts float64) dse.Point {
		return dse.Point{Res: &soc.RunResult{Runtime: sim.Tick(us * 1e6), AvgPowerW: watts}}
	}
	// Reference box 10 us x 4 W = 40 us*W. Point (2 us, 3 W) dominates
	// 8 x 1, point (6 us, 1 W) then adds 4 x 2: 16 of 40. The dominated
	// point (7 us, 3.5 W) and the one beyond the reference add nothing.
	front := dse.Space{pt(2, 3), pt(6, 1), pt(7, 3.5), pt(12, 0.5)}
	got := normHV(front, 10e-6, 4)
	if math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("normalised hypervolume %v, want 0.4", got)
	}
	if got := normHV(dse.Space{pt(11, 5)}, 10e-6, 4); got != 0 {
		t.Fatalf("a front beyond the reference scores %v, want 0", got)
	}
}

func TestHitClassification(t *testing.T) {
	for _, c := range []struct {
		body string
		hit  bool
	}{
		{`{"requested_points":3,"cached_points":3}`, true},
		{`{"requested_points":3,"cached_points":2}`, false},
		{`{"requested_points":1,"cached_points":0}`, false},
		{`{"requested_points":0,"cached_points":0}`, false},
	} {
		var r serve.SweepResponse
		if err := json.Unmarshal([]byte(c.body), &r); err != nil {
			t.Fatal(err)
		}
		if isHit(&r) != c.hit {
			t.Errorf("%s: hit = %v, want %v", c.body, !c.hit, c.hit)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(id, parent uint64, startUS, durUS float64) *spanRec {
		return &spanRec{Span: id, Parent: parent,
			Start: t0.Add(time.Duration(startUS * float64(time.Microsecond))), DurUS: durUS}
	}
	root := at(1, 0, 0, 100)
	// Children cover [10,40) and [30,50) (overlapping) and [90,120)
	// (clipped to 90..100): 40 + 10 = 50 us covered.
	s := &spanSet{byID: map[uint64]*spanRec{}, children: map[uint64][]*spanRec{}}
	for _, c := range []*spanRec{at(2, 1, 10, 30), at(3, 1, 30, 20), at(4, 1, 90, 30)} {
		s.children[1] = append(s.children[1], c)
	}
	if got := s.selfUS(root); math.Abs(got-50) > 1e-6 {
		t.Fatalf("self time %v us, want 50", got)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json equal to the
// metric tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var got bytes.Buffer
	if err := writeBenchmarkJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with --benchmark-json:\n%s", got.String())
	}
}
