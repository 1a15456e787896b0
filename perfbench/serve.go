package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/store"
	"gem5aladdin/internal/trace"
)

// serveWL is serve-mixed: the sweep service with a durable store behind
// httptest, driven by a closed loop of one client per CPU, each waiting for
// its reply before sending the next request, as a DSE driver choosing its
// next grid from the last answer does.
type serveWL struct {
	seed    uint64
	workers int
	plan    *servePlan
	// next is the index of the first request not yet sent to the current
	// server; every set-up starts a new server with an empty store, so the
	// traced phase replays the untraced phase's requests.
	next int

	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	// samples are the responses to sampled requests, by request index; the
	// serveSamples lowest indices get the Pareto check.
	samples map[int]*serve.SweepResponse
	// reqs are the untraced phase's per-request outcomes; traced those of
	// the traced phase.
	reqs, traced []reqOutcome
	// reqWall is the untraced phase's wall time.
	reqWall time.Duration
	// snap0 and snap1 bracket the traced phase's service counters.
	snap0, snap1 serve.Snapshot
}

type reqOutcome struct {
	lat time.Duration
	hit bool
	ok  bool
}

// serveRate bounds the request rate the plan is sized for, over twice the
// rate measured on a 2-vCPU host; a run stops early rather than repeat a
// fresh request.
const serveRate = 1000

// serveSamples is how many responses are re-derived through dse.Sweep.
const serveSamples = 24

// requestTimeout fails a request that has not been answered in time; the
// slowest design point takes well under a second.
const requestTimeout = 30 * time.Second

func newServeWL(seed uint64, workers, seconds int) (*serveWL, error) {
	plan, err := makeServePlan(seed, serveRate*seconds)
	if err != nil {
		return nil, err
	}
	return &serveWL{seed: seed, workers: workers, plan: plan,
		samples: map[int]*serve.SweepResponse{}}, nil
}

// setup opens a store and starts a server on it, then sends the warm pool:
// the first request for each kernel builds its trace, DDG and compiled
// artifact inside the server.
func (w *serveWL) setup(ctx context.Context, tr *tracer) error {
	w.close()
	w.next = 0
	dir, err := scratchDir("serve-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	w.dir, w.st = dir, st
	w.srv = serve.New(serve.Options{
		Workers: w.workers,
		Store:   st,
		Spans:   tr.tracerOf(),
		BuildKernel: func(name string) (*trace.Trace, error) {
			k, err := machsuite.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", serve.ErrUnknownKernel, err)
			}
			s := tr.start("trace.build")
			defer s.EndSpan()
			return k.Build()
		},
	})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Timeout: requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: w.workers}}
	var mu sync.Mutex
	var firstErr error
	w.loop(len(w.plan.Warm), func(i int) bool {
		rq := w.plan.Warm[i]
		resp, _, err := w.send(ctx, tr, rq)
		if err == nil && resp.RequestedPoints != rq.Points {
			err = fmt.Errorf("warm request %d: %d points, want %d", i, resp.RequestedPoints, rq.Points)
		}
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return false
		}
		return true
	})
	return firstErr
}

// loop runs one closed-loop client per worker over indices 0..n-1 until
// next returns false.
func (w *serveWL) loop(n int, next func(i int) bool) {
	var idx atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n || !next(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// send posts one request and reads the whole reply. Anything but a 200
// with a decodable body is an error.
func (w *serveWL) send(ctx context.Context, tr *tracer, rq serveReq) (*serve.SweepResponse, time.Duration, error) {
	span := tr.start("http.request")
	defer span.EndSpan()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.hs.URL+"/sweep",
		bytes.NewReader(rq.Body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var sr serve.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, lat, fmt.Errorf("decoding response: %w", err)
	}
	return &sr, lat, nil
}

// sampled reports whether request i is one whose Pareto records are
// re-derived after the run.
func (w *serveWL) sampled(i int) bool {
	r := rng{w.seed ^ uint64(i)*0x9e3779b97f4a7c15}
	return r.intn(64) == 0
}

// serveBatch is how many requests one pass sends; points_per_s is the
// median over passes, which a burst of slow misses or a stall of the host
// moves less than one rate over the whole phase.
const serveBatch = 400

func (w *serveWL) pass(ctx context.Context, tr *tracer, until time.Time) (passResult, error) {
	var p passResult
	var mu sync.Mutex
	var outs []reqOutcome
	if tr != nil && w.traced == nil {
		w.snap0 = w.srv.Snapshot()
	}
	base := w.next
	n := min(serveBatch, len(w.plan.Requests)-base)
	start := time.Now()
	w.loop(n, func(j int) bool {
		if !time.Now().Before(until) {
			return false
		}
		i := base + j
		rq := w.plan.Requests[i]
		resp, lat, err := w.send(ctx, tr, rq)
		ok := err == nil && resp.RequestedPoints == rq.Points &&
			resp.EvaluatedPoints == rq.Points && len(resp.Pareto) > 0 &&
			isHit(resp) == !rq.Fresh
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if !ok {
			p.failed++
		} else {
			p.points += rq.Points
			if w.sampled(i) {
				w.samples[i] = resp
			}
		}
		p.calls = append(p.calls, lat)
		outs = append(outs, reqOutcome{lat: lat, hit: !rq.Fresh, ok: ok})
		return true
	})
	p.wall = time.Since(start)
	// Requests skipped at the deadline are never sent; fresh ones stay
	// fresh for the next pass.
	w.next = base + n
	if tr != nil {
		w.snap1 = w.srv.Snapshot()
		w.traced = append(w.traced, outs...)
	} else {
		w.reqs = append(w.reqs, outs...)
		w.reqWall += p.wall
	}
	return p, nil
}

// verify re-derives the sampled responses' Pareto records through dse.Sweep
// over the request's own grid.
func (w *serveWL) verify(ctx context.Context) (int, int, error) {
	idx := make([]int, 0, len(w.samples))
	for i := range w.samples {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) > serveSamples {
		idx = idx[:serveSamples]
	}
	kernels := map[string]*soc.Compiled{}
	attempted, failed := 0, 0
	for _, i := range idx {
		resp := w.samples[i]
		rq := w.plan.Requests[i]
		k, ok := kernels[rq.Req.Kernel]
		if !ok {
			ks, err := buildKernels([]string{rq.Req.Kernel}, nil)
			if err != nil {
				return 0, 0, err
			}
			k = ks[rq.Req.Kernel]
			kernels[rq.Req.Kernel] = k
		}
		attempted++
		cfgs, err := rq.Req.Configs()
		if err != nil {
			failed++
			continue
		}
		sp, err := dse.Sweep(ctx, k, cfgs, dse.SweepOptions{Workers: w.workers})
		if err != nil {
			failed++
			continue
		}
		var rs []*soc.RunResult
		for _, pt := range sp.ParetoFront() {
			rs = append(rs, pt.Res)
		}
		want, err1 := json.Marshal(report.FromResults(rq.Req.Kernel, rs))
		got, err2 := json.Marshal(resp.Pareto)
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			failed++
		}
	}
	return attempted, failed, nil
}

// latencySplit returns the latencies in ms of all requests, of the hits
// and of the misses.
func latencySplit(outs []reqOutcome) (all, hits, misses []float64) {
	for _, o := range outs {
		v := ms(o.lat)
		all = append(all, v)
		if o.hit {
			hits = append(hits, v)
		} else {
			misses = append(misses, v)
		}
	}
	return all, hits, misses
}

func (w *serveWL) detail() ([]detailLine, error) {
	all, hits, misses := latencySplit(w.reqs)
	okN := 0
	for _, o := range w.reqs {
		if o.ok {
			okN++
		}
	}
	d := []detailLine{
		{"requests", len(all), "count"},
		{"goodput_rps", float64(okN) / w.reqWall.Seconds(), "1/s"},
		{"hit_share", ratio(float64(len(hits)), float64(len(all))), "ratio"},
		{"p50_ms", median(all), "ms"},
	}
	if p99, err := percentile(all, 99); err == nil {
		d = append(d, detailLine{"p99_ms", p99, "ms"})
	} else {
		d = append(d, detailLine{"p99_ms", "refused: " + err.Error(), ""})
	}
	d = append(d, detailLine{"hit_p50_ms", median(hits), "ms"},
		detailLine{"miss_p50_ms", median(misses), "ms"},
		detailLine{"verified_requests", okN, "count"})
	return d, nil
}

func (w *serveWL) layers(s *spanSet, m map[string]float64) error {
	_, hits, misses := latencySplit(w.traced)
	m["serve.hit_p50_ms"] = median(hits)
	m["serve.miss_p50_ms"] = median(misses)
	if p, err := percentile(misses, 99); err == nil {
		m["serve.miss_p99_ms"] = p
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: serve.miss_p99_ms:", err)
	}
	d0, d1 := w.snap0, w.snap1
	m["serve.cache_hit_ratio"] = ratio(float64(d1.CacheHits-d0.CacheHits),
		float64(d1.CacheHits-d0.CacheHits+d1.CacheMisses-d0.CacheMisses))
	m["serve.rejected"] = float64(d1.Rejected - d0.Rejected)
	m["serve.point_retries"] = float64(d1.PointRetries - d0.PointRetries)

	for _, name := range []string{"admission-wait", "cache-lookup", "queue-wait", "simulate"} {
		var self []float64
		for _, r := range s.named(name) {
			self = append(self, s.selfUS(r))
		}
		m["serve.self_us."+name] = mean(self)
	}

	// The server builds a kernel's DDG and compiles it in one call, inside
	// its build-kernel span; the part after the trace build is both.
	m["ddg.build_ms"] = (s.totalMS("build-kernel") - s.totalMS("trace.build")) / setupReps

	// Host time per simulated point and per simulated cycle, from the
	// server's simulate spans under each point span.
	kind := map[string]string{}
	for _, rq := range w.plan.Requests {
		if !rq.Fresh {
			continue
		}
		cfgs, err := rq.Req.Configs()
		if err != nil {
			return err
		}
		for i, c := range cfgs {
			kind[rq.Keys[i][:12]] = c.Mem.String() + "." + c.Fabric.Kind.String()
		}
	}
	group := map[string][]float64{}
	var hostNS, cycles float64
	for _, sim := range s.named("simulate") {
		pt := s.byID[sim.Parent]
		if pt == nil {
			continue
		}
		if k, ok := kind[pt.str("key")]; ok {
			group["soc.run_us."+k] = append(group["soc.run_us."+k], sim.DurUS)
		}
		hostNS += sim.DurUS * 1e3
		cy, _ := sim.num("cycles")
		cycles += cy
	}
	for g, us := range group {
		m[g] = mean(us)
	}
	m["soc.host_ns_per_cycle"] = ratio(hostNS, cycles)
	return nil
}

func (w *serveWL) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		w.srv = nil
	}
	if w.st != nil {
		_ = w.st.Close()
		w.st = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
