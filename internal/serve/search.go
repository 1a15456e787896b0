package serve

// Adaptive-search jobs: the "search" job kind behind POST /jobs. A search
// request runs dse.Search instead of an exhaustive grid, streams its
// front-so-far as NDJSON round lines, and checkpoints frontier state under
// search/<job id> in the result store so a killed server resumes the search
// under its original job ID to the identical front.

import (
	"context"
	"encoding/json"
	"net/http"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
)

// searchKeyPrefix namespaces search frontier checkpoints inside the result
// store, alongside job/ manifests and 64-char point hashes.
const searchKeyPrefix = "search/"

// SearchSpec is the wire form of an adaptive-search request: the seed and
// budget of the search plus the axes to explore. Empty axes select the
// default large space for the request's memory kind (~10^5 points for
// cache systems).
type SearchSpec struct {
	// Seed drives the search RNG; the same seed over the same space yields
	// a bit-identical evaluation sequence, round stream, and final front.
	Seed uint64 `json:"seed"`
	// Budget caps evaluated candidates; clamped to Options.MaxSearchBudget
	// (which also applies when the budget is unset).
	Budget int `json:"budget,omitempty"`
	// Init, Round, and Patience tune the engine (dse.SearchOptions
	// InitSamples/RoundSize/Patience); zero selects the defaults.
	Init     int `json:"init,omitempty"`
	Round    int `json:"round,omitempty"`
	Patience int `json:"patience,omitempty"`
	// Axes names the searched dimensions (see dse.SearchAxis).
	Axes []dse.SearchAxis `json:"axes,omitempty"`
}

// searchSpace expands a search request into the dse.SearchSpace it runs
// over. The server's per-point watchdog budget is folded into the base
// config (as budgeted folds it into every grid point), so it participates
// in point keys and the checkpoint fingerprint: restarting the server with
// a different -point-timeout starts the search fresh rather than resuming
// against differently-budgeted results.
func (s *Server) searchSpace(req SweepRequest) (dse.SearchSpace, error) {
	kind, err := req.memKind()
	if err != nil {
		return dse.SearchSpace{}, err
	}
	base, err := req.baseConfig()
	if err != nil {
		return dse.SearchSpace{}, err
	}
	base.Mem = kind
	if s.opt.PointBudget > 0 && base.WatchdogTicks == 0 {
		base.WatchdogTicks = s.opt.PointBudget
	}
	axes := req.Search.Axes
	if len(axes) == 0 {
		axes = dse.DefaultSearchAxes(kind)
	}
	// A top-level fabric list adds the fabric axis to the search (unless
	// the spec already names one), mirroring the grid path's crossing.
	if kinds, err := req.fabricKinds(); err != nil {
		return dse.SearchSpace{}, err
	} else if len(kinds) > 0 && !hasAxis(axes, "fabric") {
		vals := make([]int, len(kinds))
		for i, k := range kinds {
			vals[i] = int(k)
		}
		axes = append(append([]dse.SearchAxis{}, axes...), dse.SearchAxis{Name: "fabric", Values: vals})
	}
	sp := dse.SearchSpace{Base: base, Axes: axes}
	if err := sp.Validate(); err != nil {
		return dse.SearchSpace{}, err
	}
	return sp, nil
}

// hasAxis reports whether axes already name the given dimension.
func hasAxis(axes []dse.SearchAxis, name string) bool {
	for _, a := range axes {
		if a.Name == name {
			return true
		}
	}
	return false
}

// searchBudget applies the server clamp to a request's budget.
func (s *Server) searchBudget(spec *SearchSpec) int {
	if spec.Budget <= 0 || spec.Budget > s.opt.MaxSearchBudget {
		return s.opt.MaxSearchBudget
	}
	return spec.Budget
}

// searchRoundLine is one NDJSON line of a search job's result stream: the
// front so far after one round. Like the grid stream, it carries nothing
// run-specific — no job ID, timing, or simulated-point count (which depends
// on store contents) — so an interrupted-and-resumed job streams
// byte-identically to an uninterrupted one.
type searchRoundLine struct {
	Status    string            `json:"status"`
	Round     int               `json:"round"`
	Evaluated int               `json:"evaluated"`
	FrontSize int               `json:"front_size"`
	Front     []searchFrontLine `json:"front"`
}

// searchFrontLine is one front member: its axis values by name and its
// objectives in the report units (runtime_us, power_mw, edp_njs).
type searchFrontLine struct {
	Point     map[string]int `json:"point"`
	RuntimeUS float64        `json:"runtime_us"`
	PowerMW   float64        `json:"power_mw"`
	EDPnJs    float64        `json:"edp_njs"`
}

// searchSummaryLine terminates a search stream: deterministic totals and the
// final front as full report records.
type searchSummaryLine struct {
	Status      string          `json:"status"`
	Kind        string          `json:"kind"`
	SpacePoints uint64          `json:"space_points"`
	Rounds      int             `json:"rounds"`
	Evaluated   int             `json:"evaluated"`
	Converged   bool            `json:"converged"`
	EDPOptimal  *report.Record  `json:"edp_optimal,omitempty"`
	Pareto      []report.Record `json:"pareto"`
}

func encodeSearchRound(sp dse.SearchSpace, p dse.SearchProgress) []byte {
	line := searchRoundLine{
		Status:    "round",
		Round:     p.Round,
		Evaluated: p.Evaluated,
		FrontSize: p.FrontSize,
		Front:     make([]searchFrontLine, 0, len(p.Front)),
	}
	for _, fp := range p.Front {
		pt := make(map[string]int, len(sp.Axes))
		for i, a := range sp.Axes {
			pt[a.Name] = a.Values[fp.Idx[i]]
		}
		line.Front = append(line.Front, searchFrontLine{
			Point:     pt,
			RuntimeUS: float64(fp.Runtime) / 1e6,
			PowerMW:   fp.PowerW * 1e3,
			EDPnJs:    fp.EDPJs * 1e9,
		})
	}
	data, _ := json.Marshal(&line)
	return append(data, '\n')
}

// appendSearchLine publishes one stream line and wakes tailing streamers.
// Callers pass the job's updated progress counters alongside.
func (s *Server) appendSearchLine(j *job, line []byte, p *dse.SearchProgress) {
	s.jmu.Lock()
	if p != nil {
		j.searchRound = p.Round + 1
		j.searchEvaluated = p.Evaluated
		j.searchSimulated = p.Simulated
		j.searchFrontSize = p.FrontSize
	}
	j.searchLines = append(j.searchLines, line)
	j.wake()
	s.jmu.Unlock()
}

// runSearchJob drives one adaptive-search job to a terminal state. Search
// jobs run dse.Search over the same point cache, simulation slots and
// counters as grid sweeps, so their points warm the cache grid sweeps use,
// and a resumed search replays stored points instead of re-simulating them.
// Interruption semantics mirror grid jobs: shutdown leaves the manifest
// "running" (the boot-time resume signal) with the frontier checkpoint in
// the store; client cancellation and completion are terminal and drop the
// checkpoint.
func (s *Server) runSearchJob(ctx context.Context, j *job) {
	defer s.wgJobs.Done()
	defer s.activeJobs.Add(-1)
	defer close(j.done)
	close(j.started) // no per-point outcomes: pollers must never block on it

	if ctx.Err() != nil {
		if s.stopJob(j) {
			s.dropSearchState(j)
		}
		return
	}
	k, err := s.kernelFor(j.req.Kernel)
	if err != nil {
		s.finishJob(j, jobFailed, err.Error())
		return
	}
	sp, err := s.searchSpace(j.req)
	if err != nil {
		s.finishJob(j, jobFailed, err.Error())
		return
	}

	spec := j.req.Search
	view := s.view(j.req.Kernel)
	view.search = true
	opts := dse.SearchOptions{
		Seed:        spec.Seed,
		Budget:      s.searchBudget(spec),
		InitSamples: spec.Init,
		RoundSize:   spec.Round,
		Patience:    spec.Patience,
		Workers:     s.opt.Workers,
		Retry:       s.retry,
		Cache:       view,
		Progress: func(p dse.SearchProgress) {
			s.searchRounds.Add(1)
			s.appendSearchLine(j, encodeSearchRound(sp, p), &p)
		},
	}
	if s.opt.Store != nil {
		opts.CheckpointKey = searchKeyPrefix + j.id
	}

	sctx := ctx
	if s.opt.Spans != nil {
		root := s.opt.Spans.StartTrace("search-job")
		root.SetAttr("job", j.id)
		root.SetAttr("kernel", j.req.Kernel)
		root.SetAttr("budget", opts.Budget)
		defer root.EndSpan()
		sctx = obs.WithSpan(ctx, root)
	}

	res, err := dse.Search(sctx, k, sp, opts)
	if err != nil {
		if ctx.Err() != nil {
			// Client cancellation is terminal; on shutdown the frontier
			// checkpoint stays in the store for the resume.
			if s.stopJob(j) {
				s.dropSearchState(j)
			}
			return
		}
		s.finishJob(j, jobFailed, err.Error())
		s.dropSearchState(j)
		return
	}

	sum := searchSummaryLine{
		Status:      "summary",
		Kind:        "search",
		SpacePoints: res.SpaceSize,
		Rounds:      res.Rounds,
		Evaluated:   res.Evaluated,
		Converged:   res.Converged,
		Pareto:      spaceRecords(j.req.Kernel, res.Front),
	}
	if best, ok := res.Front.EDPOptimal(); ok {
		rec := report.FromResult(j.req.Kernel, best.Res)
		sum.EDPOptimal = &rec
	}
	data, _ := json.Marshal(&sum)
	s.appendSearchLine(j, append(data, '\n'), nil)
	s.finishJob(j, jobCompleted, "")
	s.dropSearchState(j)
}

// dropSearchState removes a terminal job's frontier checkpoint; the
// simulated point records stay (they are content-addressed and shared).
func (s *Server) dropSearchState(j *job) {
	if s.opt.Store != nil {
		_ = s.opt.Store.Delete(searchKeyPrefix + j.id)
	}
}

// streamSearchResults tails a search job's NDJSON stream: every published
// round line (replayed ones first on a resumed job), then the summary once
// the job completes. The connection ends early if the job is interrupted,
// cancelled, or the client goes away.
func (s *Server) streamSearchResults(w http.ResponseWriter, r *http.Request, j *job) {
	// A job that failed before producing any stream is a conflict, not an
	// empty stream (mirrors the grid path's failed-submission answer).
	s.jmu.Lock()
	state, errMsg, hasLines := j.state, j.errMsg, len(j.searchLines) > 0
	s.jmu.Unlock()
	if (state == jobFailed || state == jobCancelled) && !hasLines {
		http.Error(w, "job "+state+": "+errMsg, http.StatusConflict)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)

	next := 0
	for {
		s.jmu.Lock()
		lines := j.searchLines
		update := j.update
		s.jmu.Unlock()
		for ; next < len(lines); next++ {
			if _, err := w.Write(lines[next]); err != nil {
				return
			}
		}
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-j.done:
			// Drain lines published between the snapshot and done (the
			// summary races the close); an interrupted or failed job ends
			// the stream at the last published round.
			s.jmu.Lock()
			lines = j.searchLines
			s.jmu.Unlock()
			for ; next < len(lines); next++ {
				if _, err := w.Write(lines[next]); err != nil {
					return
				}
			}
			if fl != nil {
				fl.Flush()
			}
			return
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}
