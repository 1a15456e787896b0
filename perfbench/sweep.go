package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/golden"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
)

// sweepWL is sweep-grid: the paper's co-design sweep, every MachSuite kernel
// under DMA and a cache, lanes 1-16 on all three fabrics, through dse.Sweep
// with no store. Simulation does nearly all the work.
type sweepWL struct {
	seed    uint64
	workers int
	calls   []gridCall
	kernels map[string]*soc.Compiled

	// first holds the first pass's spaces, against which later passes and
	// the one-shot re-runs are compared, and from which the simulated
	// counts are summed.
	first  []dse.Space
	digest string
	fronts int
}

func newSweepWL(seed uint64, workers int) *sweepWL {
	return &sweepWL{seed: seed, workers: workers, calls: sweepGrid(seed)}
}

func (w *sweepWL) setup(_ context.Context, tr *tracer) error {
	ks, err := buildKernels(machsuite.Names(), tr)
	w.kernels = ks
	return err
}

func (w *sweepWL) pass(ctx context.Context, tr *tracer, _ time.Time) (passResult, error) {
	var p passResult
	h := sha256.New()
	var spaces []dse.Space
	fronts := 0
	start := time.Now()
	for ci, c := range w.calls {
		cfgs := c.Cfgs
		span := tr.start("sweep-call")
		span.SetAttr("call", ci)
		t0 := time.Now()
		sp, err := dse.Sweep(obs.WithSpan(ctx, span), w.kernels[c.Kernel], cfgs,
			dse.SweepOptions{Workers: w.workers})
		if err != nil {
			span.EndSpan()
			return p, fmt.Errorf("sweep %s/%s: %w", c.Kernel, c.Mem, err)
		}
		front := sp.ParetoFront()
		p.calls = append(p.calls, time.Since(t0))
		span.EndSpan()

		p.attempted += len(cfgs)
		p.points += len(sp)
		p.failed += len(cfgs) - len(sp)
		for _, pt := range sp {
			if pt.Res.Breakdown.Total() != pt.Res.Runtime {
				p.failed++
			}
			digestPoint(h, c.Kernel, pt)
		}
		fronts += len(front)
		spaces = append(spaces, sp)
	}
	p.wall = time.Since(start)
	digest := hex.EncodeToString(h.Sum(nil))
	switch {
	case w.first == nil:
		w.first, w.digest, w.fronts = spaces, digest, fronts
	case digest != w.digest:
		// Every pass simulates the same grid; results must repeat.
		p.failed++
	}
	return p, nil
}

// digestPoint hashes what two commits must agree on for one design point.
func digestPoint(h hash.Hash, kernel string, pt dse.Point) {
	h.Write([]byte(dse.PointKey(kernel, pt.Cfg)))
	var b [8]byte
	for _, v := range []uint64{uint64(pt.Res.Runtime), pt.Res.Cycles, math.Float64bits(pt.Res.EDPJs)} {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// layerCounts sums the simulated work counters over one pass. They are
// properties of the simulated designs, so they repeat exactly per seed.
func layerCounts(spaces []dse.Space) map[string]float64 {
	m := map[string]float64{}
	var cacheHits, cacheAcc, rowHits, rowAll float64
	fabTxn := map[soc.FabricKind]float64{}
	fabWait := map[soc.FabricKind]float64{}
	for _, sp := range spaces {
		for _, pt := range sp {
			r := pt.Res
			d := r.Datapath
			m["core.cycles"] += float64(d.Cycles)
			m["core.active_cycles"] += float64(d.ActiveCycles)
			for _, n := range d.OpsIssued {
				m["core.ops_issued"] += float64(n)
			}
			m["core.dep_stalls"] += float64(d.DepStalls)
			m["core.mem_stalls"] += float64(d.MemStalls)
			m["core.barrier_stalls"] += float64(d.BarrierStalls)
			if pt.Cfg.Mem == soc.Cache {
				cacheHits += float64(r.Cache.Hits)
				cacheAcc += float64(r.Cache.Accesses)
				m["mem.cache.mshr_stalls"] += float64(r.Cache.MSHRStalls)
			}
			rowHits += float64(r.DRAM.RowHits)
			rowAll += float64(r.DRAM.RowHits + r.DRAM.RowMisses)
			m["mem.dma.bytes"] += float64(r.DMA.BytesMoved)
			fabTxn[pt.Cfg.Fabric.Kind] += float64(r.Bus.Transactions)
			fabWait[pt.Cfg.Fabric.Kind] += float64(r.Bus.WaitTicks) / 1e3
		}
	}
	m["core.idle_cycle_frac"] = 1 - ratio(m["core.active_cycles"], m["core.cycles"])
	m["mem.cache.hit_ratio"] = ratio(cacheHits, cacheAcc)
	m["mem.dram.row_hit_ratio"] = ratio(rowHits, rowAll)
	for _, k := range soc.FabricKinds() {
		m["fabric."+k.String()+".transactions"] = fabTxn[k]
		m["fabric."+k.String()+".wait_ns_per_txn"] = ratio(fabWait[k], fabTxn[k])
	}
	return m
}

// countEvents re-runs every grid point, untimed, with a registry of its own
// and reads the event engine's counter right after the run. (A registry
// attached inside dse.Sweep reads the engine a worker reuses, so it would
// report the worker's latest point, not its own.)
func (w *sweepWL) countEvents() (float64, error) {
	var jobs []func() (float64, error)
	for _, c := range w.calls {
		for _, cfg := range c.Cfgs {
			k, cfg := w.kernels[c.Kernel], cfg
			cfg.Obs = obs.New(false)
			jobs = append(jobs, func() (float64, error) {
				if _, err := soc.Run(k, cfg); err != nil {
					return 0, err
				}
				return eventsFired(cfg.Obs.Registry)
			})
		}
	}
	counts := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				counts[i], errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	total := 0.0
	for i, n := range counts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += n
	}
	return total, nil
}

// eventsFired reads the event engine's counter out of a run's registry.
func eventsFired(reg *obs.Registry) (float64, error) {
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		return 0, err
	}
	var dump struct {
		Sim struct {
			EventsFired *float64 `json:"events_fired"`
		} `json:"sim"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		return 0, fmt.Errorf("decoding stats dump: %w", err)
	}
	if dump.Sim.EventsFired == nil {
		return 0, fmt.Errorf("stats dump has no sim.events_fired")
	}
	return *dump.Sim.EventsFired, nil
}

// verifyPoints is how many sweep results are re-run through the one-shot
// soc.Run and compared.
const verifyPoints = 24

func (w *sweepWL) verify(_ context.Context) (int, int, error) {
	r := rng{w.seed ^ 0x566572696679}
	attempted, failed := 0, 0
	for i := 0; i < verifyPoints; i++ {
		ci := r.intn(len(w.calls))
		sp := w.first[ci]
		if len(sp) == 0 {
			continue
		}
		pt := sp[r.intn(len(sp))]
		attempted++
		res, err := soc.Run(w.kernels[w.calls[ci].Kernel], pt.Cfg)
		if err != nil || !reflect.DeepEqual(res, pt.Res) {
			failed++
		}
	}
	return attempted, failed, nil
}

// fig4 is the paper's Fig 4 validation error, computed exactly as
// figures.Fig4 does: each validation kernel's baseline (non-pipelined,
// untriggered DMA) run against the golden analytic model.
func fig4(kernels map[string]*soc.Compiled) (map[string]float64, float64, error) {
	per := map[string]float64{}
	sum := 0.0
	for _, name := range golden.ValidationSuite() {
		k := kernels[name]
		cfg := soc.DefaultConfig()
		cfg.PipelinedDMA, cfg.DMATriggered = false, false
		r, err := soc.Run(k, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("fig 4 %s: %w", name, err)
		}
		e := golden.Compare(r, golden.Predict(k.Graph(), cfg))
		per[name] = e.TotalPct
		sum += e.TotalPct
	}
	return per, sum / float64(len(per)), nil
}

func (w *sweepWL) detail() ([]detailLine, error) {
	_, errPct, err := fig4(w.kernels)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range w.calls {
		n += len(c.Cfgs)
	}
	return []detailLine{
		{"grid_points", float64(n), "count"},
		{"front_points", float64(w.fronts), "count"},
		{"model_err_pct", errPct, "%"},
		{"digest", w.digest, ""},
	}, nil
}

func (w *sweepWL) layers(s *spanSet, m map[string]float64) error {
	for k, v := range layerCounts(w.first) {
		m[k] = v
	}
	ev, err := w.countEvents()
	if err != nil {
		return err
	}
	m["sim.events_fired"] = ev
	per, errPct, err := fig4(w.kernels)
	if err != nil {
		return err
	}
	for k, v := range per {
		m["golden.err_pct."+k] = v
	}
	m["golden.model_err_pct"] = errPct

	// Host time per point, from the per-point spans dse.Sweep emits under
	// each traced call.
	groupUS := map[string][]float64{}
	var hostNS, wallNS, cycles float64
	for _, call := range s.named("sweep-call") {
		ci, _ := call.num("call")
		c := w.calls[int(ci)]
		wallNS += call.DurUS * 1e3
		for _, pt := range s.children[call.Span] {
			if pt.Name != "point" {
				continue
			}
			idx, _ := pt.num("index")
			cfg := c.Cfgs[int(idx)]
			g := "soc.run_us." + cfg.Mem.String() + "." + cfg.Fabric.Kind.String()
			if cfg.Traffic != nil {
				g = "soc.run_us.traffic"
			}
			groupUS[g] = append(groupUS[g], pt.DurUS)
			hostNS += pt.DurUS * 1e3
			cy, _ := pt.num("cycles")
			cycles += cy
		}
	}
	for g, us := range groupUS {
		m[g] = mean(us)
	}
	m["soc.host_ns_per_cycle"] = ratio(hostNS, cycles)
	passes := float64(len(s.named("sweep-call"))) / float64(len(w.calls))
	m["sim.ns_per_event"] = ratio(hostNS/passes, m["sim.events_fired"])
	m["dse.sweep.worker_busy_frac"] = ratio(hostNS, float64(w.workers)*wallNS)
	return nil
}

func (w *sweepWL) close() {}
