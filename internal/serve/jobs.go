package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gem5aladdin/internal/dse"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
)

// Job states. A job is "running" from submission until it reaches a terminal
// state; a server killed mid-job leaves the manifest "running" in the store,
// which is exactly the signal the next boot uses to resume it.
const (
	jobRunning   = "running"
	jobCompleted = "completed"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// jobKeyPrefix namespaces job manifests inside the result store. Point
// records are 64-char hex hashes, so the prefix can never collide.
const jobKeyPrefix = "job/"

// jobManifest is the durable record of one submitted job: enough to restart
// it from scratch on a fresh process. Per-point progress is NOT in the
// manifest — the write-through point records are the checkpoint, so a
// resumed job re-sweeps its grid and finds every already-simulated point
// in the store.
type jobManifest struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Error   string       `json:"error,omitempty"`
	Created time.Time    `json:"created"`
	Request SweepRequest `json:"request"`
}

// job is one long-running sweep: submitted via POST /jobs, simulated through
// the same point cache as /sweep, pollable and streamable while it runs.
type job struct {
	id      string
	req     SweepRequest
	cfgs    []soc.Config
	created time.Time
	resumed bool

	cancel context.CancelFunc
	// started closes once the job starts claiming points (at once for a
	// search job); done closes when the job goroutine exits (terminal
	// state or interruption).
	started chan struct{}
	done    chan struct{}

	// Guarded by Server.jmu.
	state           string
	errMsg          string
	clientCancelled bool
	// outcomes holds each grid point's outcome by grid index, nil while
	// the point is pending.
	outcomes []*dse.CachedPoint
	// update is rotated (closed and replaced) whenever outcomes or
	// searchLines grow, so tailing streamers wake up.
	update chan struct{}

	// Search-job state (req.Search != nil), guarded by Server.jmu. Stream
	// lines accumulate as rounds complete.
	searchBudget    int
	searchRound     int
	searchEvaluated int
	searchSimulated int
	searchFrontSize int
	searchLines     [][]byte
}

// wake rotates the job's update channel. Callers hold Server.jmu.
func (j *job) wake() {
	close(j.update)
	j.update = make(chan struct{})
}

// setOutcome records grid point i's outcome and wakes tailing streamers.
func (s *Server) setOutcome(j *job, i int, cp *dse.CachedPoint) {
	s.jmu.Lock()
	j.outcomes[i] = cp
	j.wake()
	s.jmu.Unlock()
}

// newJobID returns a 16-hex-char random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// putManifest persists the job's manifest; a nil store makes jobs
// process-local (no resume after restart).
func (s *Server) putManifest(j *job, state, errMsg string) {
	if s.opt.Store == nil {
		return
	}
	m := jobManifest{ID: j.id, State: state, Error: errMsg,
		Created: j.created, Request: j.req}
	data, err := json.Marshal(&m)
	if err != nil {
		return
	}
	if err := s.opt.Store.Put(jobKeyPrefix+j.id, data); err != nil {
		if lg := s.opt.Logger; lg != nil {
			lg.Warn("job manifest write failed", "job", j.id, "err", err.Error())
		}
	}
}

// startJob registers and launches a validated job. Callers have already
// expanded cfgs. Holds no locks. The job's context is process-scoped, not
// request-scoped: the submitting HTTP request returns immediately and the
// job keeps running until terminal, cancelled, or interrupted by Shutdown.
func (s *Server) startJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	s.jmu.Lock()
	j.cancel = cancel
	j.update = make(chan struct{})
	if j.req.Search != nil {
		j.searchBudget = s.searchBudget(j.req.Search)
	} else {
		j.outcomes = make([]*dse.CachedPoint, len(j.cfgs))
	}
	s.jobs[j.id] = j
	s.jmu.Unlock()
	s.activeJobs.Add(1)
	s.wgJobs.Add(1)
	if j.req.Search != nil {
		go s.runSearchJob(ctx, j)
	} else {
		go s.runJob(ctx, j)
	}
}

// runJob drives one grid job to a terminal state: resolve the kernel, run
// the grid through dse.SweepIsolated over the job's view of the point cache
// (the store serves already-finished points instantly), and checkpoint the
// outcome. An interruption (server shutdown) leaves the manifest "running"
// so the next boot resumes the job; a client cancellation is terminal.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wgJobs.Done()
	defer s.activeJobs.Add(-1)
	defer close(j.done)

	if ctx.Err() != nil {
		s.stopJob(j)
		return
	}
	k, err := s.kernelFor(j.req.Kernel)
	if err != nil {
		s.finishJob(j, jobFailed, err.Error())
		return
	}

	cfgs := s.budgeted(j.cfgs)
	view := s.view(j.req.Kernel)
	view.job = j
	view.index = make(map[string]int, len(cfgs))
	for i, c := range cfgs {
		view.index[dse.PointKey(j.req.Kernel, c)] = i
	}
	close(j.started)
	_, fails, err := dse.SweepIsolated(ctx, k, cfgs,
		dse.SweepOptions{Workers: s.opt.Workers, Cache: view, Retry: s.retry})
	if err != nil {
		s.stopJob(j)
		return
	}
	// A genuine simulation error is never cached, so the view never saw
	// it: take it from the sweep's failure list.
	for _, f := range fails {
		if f.Kind == "error" {
			s.setOutcome(j, f.Index, &dse.CachedPoint{Kind: f.Kind, Err: f.Err, Attempts: f.Attempts})
		}
	}
	s.finishJob(j, jobCompleted, "")
}

// stopJob settles a job whose context ended and reports whether a client
// cancelled it, which is terminal. Otherwise the server is shutting down:
// the manifest stays "running" on disk, the resume signal for the next boot.
func (s *Server) stopJob(j *job) bool {
	s.jmu.Lock()
	cancelled := j.clientCancelled
	s.jmu.Unlock()
	if cancelled {
		s.finishJob(j, jobCancelled, "")
		return true
	}
	if lg := s.opt.Logger; lg != nil {
		lg.Info("job interrupted for shutdown; will resume on restart", "job", j.id)
	}
	return false
}

// finishJob records a terminal state in memory, on disk, and in the stats.
func (s *Server) finishJob(j *job, state, errMsg string) {
	s.jmu.Lock()
	j.state = state
	j.errMsg = errMsg
	s.jmu.Unlock()
	s.putManifest(j, state, errMsg)
	switch state {
	case jobCompleted:
		s.jobsCompleted.Add(1)
	case jobFailed:
		s.jobsFailed.Add(1)
	case jobCancelled:
		s.jobsCancelled.Add(1)
	}
	if lg := s.opt.Logger; lg != nil {
		lg.Info("job finished", "job", j.id, "state", state,
			"kernel", j.req.Kernel, "points", len(j.cfgs), "err", errMsg)
	}
}

// resumeJobs replays the store's manifests at boot: every job left
// "running" by a previous process is resubmitted under its original ID. The
// already-simulated points come straight back from the store, so the resumed
// job only simulates what the interrupted run never finished.
func (s *Server) resumeJobs() {
	if s.opt.Store == nil {
		return
	}
	for _, key := range s.opt.Store.Keys(jobKeyPrefix) {
		data, ok, err := s.opt.Store.Get(key)
		if err != nil || !ok {
			continue
		}
		var m jobManifest
		if err := json.Unmarshal(data, &m); err != nil || m.State != jobRunning {
			continue
		}
		var cfgs []soc.Config
		var expandErr error
		if m.Request.Search != nil {
			// Search jobs re-derive everything from the manifest request;
			// their frontier checkpoint under search/<id> does the rest.
			_, expandErr = s.searchSpace(m.Request)
		} else {
			cfgs, expandErr = m.Request.Configs()
		}
		if expandErr != nil {
			// The request no longer expands (schema drift): fail it durably
			// rather than resurrect it forever.
			j := &job{id: m.ID, req: m.Request, created: m.Created,
				state: jobFailed, errMsg: expandErr.Error(),
				started: make(chan struct{}), done: make(chan struct{})}
			close(j.done)
			s.jmu.Lock()
			s.jobs[j.id] = j
			s.jmu.Unlock()
			s.putManifest(j, jobFailed, expandErr.Error())
			s.jobsFailed.Add(1)
			continue
		}
		j := &job{id: m.ID, req: m.Request, cfgs: cfgs, created: m.Created,
			resumed: true, state: jobRunning,
			started: make(chan struct{}), done: make(chan struct{})}
		s.jobsResumed.Add(1)
		if lg := s.opt.Logger; lg != nil {
			lg.Info("resuming interrupted job", "job", j.id,
				"kernel", j.req.Kernel, "points", len(cfgs))
		}
		s.startJob(j)
	}
}

// interruptJobs cancels every running job (shutdown path). Manifests stay
// "running" so a restart resumes them.
func (s *Server) interruptJobs() {
	s.jmu.Lock()
	for _, j := range s.jobs {
		if j.state == jobRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.jmu.Unlock()
}

// --- HTTP surface ---

// jobStatus is the GET /jobs/{id} reply.
type jobStatus struct {
	JobID   string `json:"job_id"`
	Kernel  string `json:"kernel"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	Points    int `json:"points"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Pending   int `json:"pending"`

	// Search-job fields (kind == "search"): Points/Completed/Pending above
	// are expressed in budget terms (budget, evaluated, remaining), and the
	// adaptive progress rides alongside.
	Kind      string `json:"kind,omitempty"`
	Round     int    `json:"round,omitempty"`
	FrontSize int    `json:"front_size,omitempty"`
	Simulated int    `json:"simulated,omitempty"`
}

// status snapshots the job's per-point progress without blocking on any
// simulation.
func (s *Server) jobStatusOf(j *job) jobStatus {
	s.jmu.Lock()
	st := jobStatus{JobID: j.id, Kernel: j.req.Kernel, State: j.state,
		Error: j.errMsg, Resumed: j.resumed, Points: len(j.cfgs)}
	if j.req.Search != nil {
		st.Kind = "search"
		st.Points = j.searchBudget
		st.Completed = j.searchEvaluated
		st.Pending = j.searchBudget - j.searchEvaluated
		if st.Pending < 0 {
			st.Pending = 0
		}
		st.Round = j.searchRound
		st.FrontSize = j.searchFrontSize
		st.Simulated = j.searchSimulated
		s.jmu.Unlock()
		return st
	}
	for _, cp := range j.outcomes {
		switch {
		case cp == nil:
			st.Pending++
		case cp.Result != nil:
			st.Completed++
		default:
			st.Failed++
		}
	}
	s.jmu.Unlock()
	return st
}

// handleJobs is POST /jobs: submit a sweep job and return immediately.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "job submission is a POST", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad job request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var cfgs []soc.Config
	points := 0
	if req.Search != nil {
		// Search jobs carry no expanded grid; validate the space now so a
		// bad request fails at submission, not inside the job goroutine.
		if _, err := s.searchSpace(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		points = s.searchBudget(req.Search)
	} else {
		var err error
		cfgs, err = req.Configs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		points = len(cfgs)
	}

	s.jmu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.state == jobRunning {
			running++
		}
	}
	s.jmu.Unlock()
	if running >= s.opt.MaxJobs {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job limit reached", http.StatusTooManyRequests)
		return
	}

	id, err := newJobID()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	j := &job{id: id, req: req, cfgs: cfgs, created: time.Now(),
		state: jobRunning, started: make(chan struct{}), done: make(chan struct{})}
	s.jobsSubmitted.Add(1)
	s.putManifest(j, jobRunning, "")
	s.startJob(j)
	if lg := s.opt.Logger; lg != nil {
		lg.Info("job submitted", "job", id, "kernel", req.Kernel,
			"points", points, "search", req.Search != nil)
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	reply := map[string]any{
		"job_id": id,
		"state":  jobRunning,
		"points": points,
	}
	if req.Search != nil {
		reply["kind"] = "search"
	}
	_ = enc.Encode(reply)
}

// handleJob serves GET /jobs/{id} (status), DELETE /jobs/{id} (cancel), and
// GET /jobs/{id}/results (NDJSON result stream).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	s.jmu.Lock()
	j, ok := s.jobs[id]
	s.jmu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.jobStatusOf(j))
	case sub == "" && r.Method == http.MethodDelete:
		s.jmu.Lock()
		j.clientCancelled = true
		cancel := j.cancel
		s.jmu.Unlock()
		if cancel != nil {
			cancel()
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.jobStatusOf(j))
	case sub == "results" && r.Method == http.MethodGet:
		if j.req.Search != nil {
			s.streamSearchResults(w, r, j)
		} else {
			s.streamJobResults(w, r, j)
		}
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "unsupported job operation", http.StatusMethodNotAllowed)
	}
}

// jobResultLine is one NDJSON line of GET /jobs/{id}/results: a completed
// point ("ok" + its record), or a failed one with its classification.
type jobResultLine struct {
	Index    int            `json:"index"`
	Status   string         `json:"status"`
	Record   *report.Record `json:"record,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Error    string         `json:"error,omitempty"`
	Attempts int            `json:"attempts,omitempty"`
}

// jobSummaryLine terminates the stream. It deliberately carries no job ID,
// timing, or other run-specific detail: two runs of the same request produce
// byte-identical streams, which is how the kill-and-restart test proves a
// resumed job lost nothing.
type jobSummaryLine struct {
	Status     string          `json:"status"`
	Requested  int             `json:"requested"`
	Evaluated  int             `json:"evaluated"`
	Failed     int             `json:"failed"`
	Failures   []jobResultLine `json:"failures,omitempty"`
	EDPOptimal *report.Record  `json:"edp_optimal,omitempty"`
	Pareto     []report.Record `json:"pareto"`
}

// streamJobResults writes the job's outcome as NDJSON in request order,
// incrementally: each point's line is flushed as soon as that point
// finishes, so a client can tail a running job. The final line is the
// summary (Pareto front and EDP optimum over the surviving points, failures
// enumerated).
func (s *Server) streamJobResults(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.started:
	case <-j.done:
		// Terminal before claiming any point (failed submission/resume).
		st := s.jobStatusOf(j)
		if st.State == jobFailed || st.State == jobCancelled {
			http.Error(w, fmt.Sprintf("job %s: %s", st.State, st.Error),
				http.StatusConflict)
			return
		}
	case <-r.Context().Done():
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	space := make(dse.Space, 0, len(j.cfgs))
	var failures []jobResultLine
	for i := range j.cfgs {
		cp := s.awaitOutcome(r.Context(), j, i)
		if cp == nil {
			// Interrupted, cancelled, or the client went away: stop at the
			// boundary.
			return
		}
		line := jobResultLine{Index: i}
		if cp.Result != nil {
			line.Status = "ok"
			rec := report.FromResult(j.req.Kernel, cp.Result)
			line.Record = &rec
			space = append(space, dse.Point{Cfg: j.cfgs[i], Res: cp.Result})
		} else {
			line.Status = "failed"
			line.Kind = cp.Kind
			line.Error = cp.Err
			line.Attempts = cp.Attempts
			failures = append(failures, line)
		}
		if err := enc.Encode(&line); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}

	sum := jobSummaryLine{
		Status:    "summary",
		Requested: len(j.cfgs),
		Evaluated: len(space),
		Failed:    len(failures),
		Failures:  failures,
		Pareto:    spaceRecords(j.req.Kernel, space.ParetoFront()),
	}
	if best, ok := space.EDPOptimal(); ok {
		rec := report.FromResult(j.req.Kernel, best.Res)
		sum.EDPOptimal = &rec
	}
	_ = enc.Encode(&sum)
	if fl != nil {
		fl.Flush()
	}
}

// awaitOutcome blocks until grid point i of j resolves and returns its
// outcome, or nil when the job ends without it or ctx ends first.
func (s *Server) awaitOutcome(ctx context.Context, j *job, i int) *dse.CachedPoint {
	for {
		s.jmu.Lock()
		cp, update := j.outcomes[i], j.update
		s.jmu.Unlock()
		if cp != nil {
			return cp
		}
		select {
		case <-update:
		case <-j.done:
			s.jmu.Lock()
			defer s.jmu.Unlock()
			return j.outcomes[i]
		case <-ctx.Done():
			return nil
		}
	}
}
