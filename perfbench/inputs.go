package main

import (
	"encoding/json"
	"fmt"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/soc"
)

// rng is a splitmix64 stream: every input the benchmark feeds the program
// comes from one of these, seeded from --seed, so a seed fixes the inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

var (
	gridLanes       = []int{1, 2, 4, 8, 16}
	memKinds        = []soc.MemKind{soc.DMA, soc.Cache}
	partitions      = []int{1, 2, 4, 8, 16}
	cacheKB         = []int{4, 8, 16, 32, 64}
	cachePorts      = []int{1, 2, 4}
	cacheAssoc      = []int{2, 4, 8}
	cacheLines      = []int{16, 32, 64}
	trafficPeriodNs = []sim.Tick{600, 800, 1000}
	trafficSize     = []uint32{64, 128}
)

// balanced returns n values that use each of vals equally often (to within
// one), in a seeded order: stratified sampling, so that a seed changes the
// inputs but not their mix.
func balanced(r *rng, vals []int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	shuffle(r, out)
	return out
}

// gridCall is one dse.Sweep call of sweep-grid: one kernel under one memory
// system, the unit a co-design user waits on for a Pareto front.
type gridCall struct {
	Kernel string
	Mem    soc.MemKind
	Cfgs   []soc.Config
}

// sweepGrid builds the sweep-grid design points. Every (kernel, memory,
// lanes, fabric) cell gets exactly one point, and every secondary value
// (banking, cache size, ports, associativity) is used equally often within
// each call, so the grid's cost barely depends on the seed. The seed picks
// which lanes get which secondary values, which point of each fabric runs
// under background CPU traffic and with what period and payload, and the
// order the points are dispatched in.
func sweepGrid(seed uint64) []gridCall {
	r := rng{seed ^ 0x5377656570}
	var calls []gridCall
	for _, name := range machsuite.Names() {
		for _, mem := range memKinds {
			n := len(gridLanes) * len(soc.FabricKinds())
			ports, assoc := balanced(&r, cachePorts, n), balanced(&r, cacheAssoc, n)
			var cfgs []soc.Config
			for _, fab := range soc.FabricKinds() {
				secondary := balanced(&r, partitions, len(gridLanes))
				if mem == soc.Cache {
					secondary = balanced(&r, cacheKB, len(gridLanes))
				}
				traffic := r.intn(len(gridLanes))
				for li, lanes := range gridLanes {
					c := soc.DefaultConfig()
					c.Mem, c.Lanes, c.Fabric.Kind = mem, lanes, fab
					if mem == soc.DMA {
						c.Partitions = secondary[li]
					} else {
						i := len(cfgs)
						c.CacheKB, c.CachePorts, c.CacheAssoc = secondary[li], ports[i], assoc[i]
					}
					if li == traffic {
						c.Traffic = &soc.TrafficConfig{
							Period: pick(&r, trafficPeriodNs) * sim.Nanosecond,
							Bytes:  pick(&r, trafficSize),
						}
					}
					cfgs = append(cfgs, c)
				}
			}
			shuffle(&r, cfgs)
			calls = append(calls, gridCall{Kernel: name, Mem: mem, Cfgs: cfgs})
		}
	}
	return calls
}

// searchKernels are the search-front kernels: a sparse, a neighbour-list,
// an FFT and a stencil kernel, each searched under DMA and under a cache.
var searchKernels = []string{"spmv-crs", "md-knn", "fft-transpose", "stencil-stencil3d"}

// searchBudget is the evaluation budget of every search-front search.
const searchBudget = 128

// searchCase is one dse.Search of search-front.
type searchCase struct {
	Kernel string
	Mem    soc.MemKind
	Seed   uint64
	Space  dse.SearchSpace
}

func searchCases(seed uint64) []searchCase {
	r := rng{seed ^ 0x536561726368}
	var out []searchCase
	for _, name := range searchKernels {
		for _, mem := range memKinds {
			base := soc.DefaultConfig()
			base.Mem = mem
			out = append(out, searchCase{Kernel: name, Mem: mem, Seed: r.next(),
				Space: dse.SearchSpace{Base: base, Axes: dse.DefaultSearchAxes(mem)}})
		}
	}
	return out
}

// servePlan is the serve-mixed traffic: a warm pool sent during set-up and a
// request sequence in which about three quarters of the requests repeat a
// warm body byte for byte (cache hits) and the rest are fresh grids whose
// every design point is new to the server (misses).
type servePlan struct {
	Warm     []serveReq
	Requests []serveReq
}

type serveReq struct {
	Req    serve.SweepRequest
	Body   []byte
	Points int
	// Fresh marks a request none of whose points was requested before.
	Fresh bool
	// Keys are the PointKeys of the request's design points.
	Keys []string
}

const serveHitShare = 0.75

// meshDims and burstLens widen the fresh-request space so that thousands of
// fresh requests never run out of unseen design points.
var (
	meshDims  = []int{2, 3, 4, 5, 6}
	burstLens = []int{2, 4, 8, 16, 32, 64}
	busBits   = []int{32, 64, 128}
)

// freshSizes is the design-point count mix of fresh requests.
var freshSizes = []int{1, 2, 2, 4}

// warmRequest is the one-point warm-pool request of a kernel: the default
// design on the bus.
func warmRequest(kernel string, mem soc.MemKind) serve.SweepRequest {
	d := soc.DefaultConfig()
	req := serve.SweepRequest{Kernel: kernel, Mem: mem.String(), Lanes: []int{d.Lanes},
		Fabrics: []string{soc.FabricBus.String()}}
	if mem == soc.DMA {
		req.Partitions = []int{d.Partitions}
		return req
	}
	req.CacheKB, req.CacheLines = []int{d.CacheKB}, []int{d.CacheLineBytes}
	req.CachePorts, req.CacheAssoc = []int{d.CachePorts}, []int{d.CacheAssoc}
	return req
}

func makeServePlan(seed uint64, n int) (*servePlan, error) {
	r := rng{seed ^ 0x5365727665}
	kernels := machsuite.Names()
	seen := map[string]bool{}
	p := &servePlan{}
	fresh := func(kernel string, c combo, size int) (serveReq, error) {
		for tries := 0; tries < 1000; tries++ {
			sr, err := newServeReq(randomRequest(&r, kernel, c, size))
			if err != nil {
				return sr, err
			}
			dup := false
			for _, k := range sr.Keys {
				dup = dup || seen[k]
			}
			if dup {
				continue // the point is taken: draw again
			}
			for _, k := range sr.Keys {
				seen[k] = true
			}
			sr.Fresh = true
			return sr, nil
		}
		return serveReq{}, fmt.Errorf("no unseen %s design point in 1000 draws", kernel)
	}
	// The warm pool is the same at every seed: it is simulated during
	// set-up, so a seeded pool would make setup_s depend on the seed.
	for i, k := range kernels {
		sr, err := newServeReq(warmRequest(k, memKinds[i%2]))
		if err != nil {
			return nil, err
		}
		for _, key := range sr.Keys {
			seen[key] = true
		}
		p.Warm = append(p.Warm, sr)
	}
	// Fresh requests are stratified too: each run of len(kernels) fresh
	// requests covers every kernel once, each run of len(freshSizes) uses
	// every size once, and each kernel's fresh requests cycle through every
	// memory system and first lane count, the inputs a point's cost depends
	// on most.
	var order []string
	var sizes []int
	combos := map[string][]combo{}
	hitCut := uint64(serveHitShare * (1 << 32))
	for i := 0; i < n; i++ {
		if r.next()>>32 < hitCut {
			p.Requests = append(p.Requests, pick(&r, p.Warm))
			continue
		}
		if len(order) == 0 {
			order = append([]string(nil), kernels...)
			shuffle(&r, order)
		}
		if len(sizes) == 0 {
			sizes = balanced(&r, freshSizes, len(freshSizes))
		}
		k := order[0]
		if len(combos[k]) == 0 {
			for _, m := range memKinds {
				for li := range gridLanes {
					combos[k] = append(combos[k], combo{m, li})
				}
			}
			shuffle(&r, combos[k])
		}
		sr, err := fresh(k, combos[k][0], sizes[0])
		if err != nil {
			return nil, err
		}
		order, sizes, combos[k] = order[1:], sizes[1:], combos[k][1:]
		p.Requests = append(p.Requests, sr)
	}
	return p, nil
}

// combo is the memory system and first lane count (an index into
// gridLanes) of a fresh request.
type combo struct {
	mem  soc.MemKind
	lane int
}

// randomRequest draws a /sweep grid of size (1, 2 or 4) design points: one
// or two values on each of two axes, under one fabric.
func randomRequest(r *rng, kernel string, c combo, size int) serve.SweepRequest {
	req := serve.SweepRequest{Kernel: kernel, Mem: c.mem.String(), BusBits: pick(r, busBits)}
	fab := pick(r, soc.FabricKinds())
	req.Fabrics = []string{fab.String()}
	switch fab {
	case soc.FabricMesh:
		req.MeshDim = pick(r, meshDims)
	case soc.FabricCrossbar:
		req.BurstLen = pick(r, burstLens)
	}
	axis := func(vals []int, first int, two bool) []int {
		a := first
		if a < 0 {
			a = r.intn(len(vals))
		}
		if !two {
			return []int{vals[a]}
		}
		b := (a + 1 + r.intn(len(vals)-1)) % len(vals)
		return []int{vals[a], vals[b]}
	}
	req.Lanes = axis(gridLanes, c.lane, size >= 2)
	if c.mem == soc.DMA {
		req.Partitions = axis(partitions, -1, size == 4)
		return req
	}
	req.CacheKB = axis(cacheKB, -1, size == 4)
	req.CacheLines = axis(cacheLines, -1, false)
	req.CachePorts = axis(cachePorts, -1, false)
	req.CacheAssoc = axis(cacheAssoc, -1, false)
	return req
}

func newServeReq(req serve.SweepRequest) (serveReq, error) {
	cfgs, err := req.Configs()
	if err != nil {
		return serveReq{}, fmt.Errorf("generated request for %s: %w", req.Kernel, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serveReq{}, err
	}
	sr := serveReq{Req: req, Body: body, Points: len(cfgs)}
	for _, c := range cfgs {
		sr.Keys = append(sr.Keys, dse.PointKey(req.Kernel, c))
	}
	return sr, nil
}
