package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
)

// searchWL is search-front: durable adaptive searches. Each pass opens an
// empty store, runs every search cold through a dse.StoreCache with a
// checkpoint key (a store write per point, a checkpoint per round), then
// re-runs each search against the populated store without the checkpoint,
// so every point is a store read. Every pass repeats the same searches, so
// a run measures the same work however many passes fit in it.
type searchWL struct {
	workers int
	cases   []searchCase
	kernels map[string]*soc.Compiled

	// fronts are the first pass's cold fronts, which every later pass, after
	// any set-up, must repeat.
	fronts  []dse.Space
	results []*dse.SearchResult
	stats   store.Stats
	// warm is the last pass's warm re-run time.
	warm time.Duration
}

func newSearchWL(seed uint64, workers int) *searchWL {
	return &searchWL{workers: workers, cases: searchCases(seed)}
}

func (w *searchWL) setup(_ context.Context, tr *tracer) error {
	ks, err := buildKernels(searchKernels, tr)
	w.kernels = ks
	return err
}

func (w *searchWL) options(c searchCase, st *store.Store, checkpoint bool) dse.SearchOptions {
	o := dse.SearchOptions{Seed: c.Seed, Budget: searchBudget, Workers: w.workers,
		Cache: &dse.StoreCache{Kernel: c.Kernel, Store: st}}
	if checkpoint {
		o.CheckpointKey = "search/" + c.Kernel + "/" + c.Mem.String()
	}
	return o
}

func (w *searchWL) pass(ctx context.Context, tr *tracer, _ time.Time) (p passResult, err error) {
	dir, err := scratchDir("search-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return p, err
	}
	defer func() {
		if cerr := st.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing store: %w", cerr)
		}
	}()

	var cold []*dse.SearchResult
	start := time.Now()
	for _, c := range w.cases {
		span := tr.start("search")
		res, err := dse.Search(obs.WithSpan(ctx, span), w.kernels[c.Kernel], c.Space,
			w.options(c, st, true))
		span.EndSpan()
		p.attempted++
		if err != nil {
			return p, fmt.Errorf("search %s/%s: %w", c.Kernel, c.Mem, err)
		}
		p.points += res.Evaluated
		cold = append(cold, res)
	}
	p.wall = time.Since(start)
	// The exploration a search-front user waits on is the set of searches:
	// its front is in hand when the last search returns.
	p.calls = []time.Duration{p.wall}
	stats := st.Stats()

	// The read path: the same searches, every point a store hit.
	warmStart := time.Now()
	for i, c := range w.cases {
		span := tr.start("store.replay")
		res, err := dse.Search(ctx, w.kernels[c.Kernel], c.Space, w.options(c, st, false))
		p.attempted++
		if err != nil {
			span.EndSpan()
			return p, fmt.Errorf("warm search %s/%s: %w", c.Kernel, c.Mem, err)
		}
		span.SetAttr("evaluated", res.Evaluated)
		span.EndSpan()
		if res.Simulated != 0 || !sameFront(res.Front, cold[i].Front) {
			p.failed++
		}
	}
	w.warm = time.Since(warmStart)

	if w.fronts == nil {
		w.results, w.stats = cold, stats
		for _, r := range cold {
			w.fronts = append(w.fronts, r.Front)
		}
		return p, nil
	}
	for i, r := range cold {
		if !sameFront(r.Front, w.fronts[i]) {
			p.failed++
		}
	}
	return p, nil
}

// sameFront compares two fronts point by point: configuration and the
// simulated runtime, power and cycles.
func sameFront(a, b dse.Space) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if dse.PointKey("", a[i].Cfg) != dse.PointKey("", b[i].Cfg) ||
			a[i].Res.Runtime != b[i].Res.Runtime || a[i].Res.Cycles != b[i].Res.Cycles ||
			a[i].Res.AvgPowerW != b[i].Res.AvgPowerW {
			return false
		}
	}
	return true
}

func (w *searchWL) verify(context.Context) (int, int, error) { return 0, 0, nil }

// frontHV is the mean over the searches of the front's hypervolume against
// the 1-lane default design of the kernel and memory system, as a share of
// that reference box.
func (w *searchWL) frontHV() (float64, error) {
	sum := 0.0
	for i, c := range w.cases {
		ref := c.Space.Base
		ref.Lanes = 1
		r, err := soc.Run(w.kernels[c.Kernel], ref)
		if err != nil {
			return 0, fmt.Errorf("reference design %s/%s: %w", c.Kernel, c.Mem, err)
		}
		sum += normHV(w.fronts[i], r.Seconds(), r.AvgPowerW)
	}
	return sum / float64(len(w.cases)), nil
}

func (w *searchWL) counts() map[string]float64 {
	m := map[string]float64{}
	for _, r := range w.results {
		m["dse.search.rounds"] += float64(r.Rounds)
		m["dse.search.evaluated"] += float64(r.Evaluated)
		m["dse.search.simulated"] += float64(r.Simulated)
	}
	m["store.records"] = float64(w.stats.Records)
	m["store.bytes"] = float64(w.stats.TotalBytes)
	return m
}

func (w *searchWL) detail() ([]detailLine, error) {
	hv, err := w.frontHV()
	if err != nil {
		return nil, err
	}
	c := w.counts()
	front := 0
	for _, f := range w.fronts {
		front += len(f)
	}
	return []detailLine{
		{"searches", len(w.cases), "count"},
		{"budget", searchBudget, "points/search"},
		{"front_hv", hv, "ratio"},
		{"front_points", front, "count"},
		{"evaluated", c["dse.search.evaluated"], "count"},
		{"simulated", c["dse.search.simulated"], "count"},
		{"rounds", c["dse.search.rounds"], "count"},
		{"store_records", c["store.records"], "count"},
		{"warm_rerun_s", w.warm.Seconds(), "s"},
	}, nil
}

func (w *searchWL) layers(s *spanSet, m map[string]float64) error {
	for k, v := range w.counts() {
		m[k] = v
	}
	hv, err := w.frontHV()
	if err != nil {
		return err
	}
	m["dse.search.front_hv"] = hv

	searches := s.named("search")
	var overheadMS, hostNS, cycles, wallNS float64
	for _, sr := range searches {
		var points []*spanRec
		for _, round := range s.children[sr.Span] {
			for _, pt := range s.children[round.Span] {
				if pt.Name == "point" {
					points = append(points, pt)
					hostNS += pt.DurUS * 1e3
					cy, _ := pt.num("cycles")
					cycles += cy
				}
			}
		}
		// Time no design point was simulating: candidate generation, front
		// updates, checkpoints and front materialisation.
		overheadMS += sr.DurUS/1e3 - float64(covered(points, sr.Start, sr.end()))/1e6
		wallNS += sr.DurUS * 1e3
	}
	passes := float64(len(searches)) / float64(len(w.cases))
	m["dse.search.overhead_ms"] = ratio(overheadMS, passes)
	m["soc.host_ns_per_cycle"] = ratio(hostNS, cycles)
	m["dse.sweep.worker_busy_frac"] = ratio(hostNS, float64(w.workers)*wallNS)

	var replayed, replayUS float64
	for _, r := range s.named("store.replay") {
		n, _ := r.num("evaluated")
		replayed += n
		replayUS += r.DurUS
	}
	m["store.replay_points_per_s"] = ratio(replayed, replayUS/1e6)
	return nil
}

func (w *searchWL) close() {}
