package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/serve"
)

// sinkSpan is one JSONL record of a span sink.
type sinkSpan struct {
	Trace string  `json:"trace"`
	Name  string  `json:"name"`
	Start string  `json:"start"`
	DurUS float64 `json:"dur_us"`
	start time.Time
	end   time.Time
}

func parseSink(t *testing.T, sink string) []sinkSpan {
	t.Helper()
	var out []sinkSpan
	for _, ln := range strings.Split(strings.TrimSpace(sink), "\n") {
		var sp sinkSpan
		if err := json.Unmarshal([]byte(ln), &sp); err != nil {
			t.Fatalf("span sink line not JSON: %v: %s", err, ln)
		}
		start, err := time.Parse(time.RFC3339Nano, sp.Start)
		if err != nil {
			t.Fatal(err)
		}
		sp.start = start
		sp.end = start.Add(time.Duration(math.Round(sp.DurUS * 1e3)))
		out = append(out, sp)
	}
	return out
}

// TestSearchJobSharesSimulationSlots runs a search job and a concurrent
// /sweep on a one-slot server. Search points go through the server's point
// cache like grid points: each one the search simulates has a simulate span
// in the search job's trace, and the single slot serializes every
// simulation of both callers, so no two simulate spans overlap in time.
func TestSearchJobSharesSimulationSlots(t *testing.T) {
	var sink syncBuf
	_, ts := newTestServer(t, serve.Options{
		Workers: 1,
		Spans:   obs.NewSpanTracer(&sink, 1<<16),
	})
	id := submitJob(t, ts.URL, searchReq(24, 8, 8))

	sweep := quickReq()
	sweep.Mem = "isolated" // no point in common with the DMA search
	sweep.Lanes = []int{1, 2, 4}
	sweep.Partitions = []int{1, 2, 4}
	code, body := postSweep(t, ts.URL, sweep)
	if code != http.StatusOK {
		t.Fatalf("concurrent sweep: %d: %s", code, body)
	}
	st := waitJob(t, ts.URL, id)
	if st.State != "completed" || st.Simulated == 0 {
		t.Fatalf("search job: %+v", st)
	}

	// Root spans end after the replies go out, so tell the two traces
	// apart by the sweep's trace ID rather than by their roots.
	sweepTrace := decodeSweep(t, body).TraceID
	var sims []sinkSpan
	searchSims, sweepSims := 0, 0
	for _, sp := range parseSink(t, sink.String()) {
		if sp.Name != "simulate" {
			continue
		}
		sims = append(sims, sp)
		if sp.Trace == sweepTrace {
			sweepSims++
		} else {
			searchSims++
		}
	}
	if searchSims != st.Simulated {
		t.Errorf("search trace holds %d simulate spans, want one per simulated point (%d)",
			searchSims, st.Simulated)
	}
	if sweepSims != 9 {
		t.Errorf("sweep trace holds %d simulate spans, want 9", sweepSims)
	}
	sort.Slice(sims, func(a, b int) bool { return sims[a].start.Before(sims[b].start) })
	for i := 1; i < len(sims); i++ {
		if sims[i].start.Before(sims[i-1].end) {
			t.Fatalf("simulate spans overlap on a one-slot server: one starts at %v, before the previous ends at %v",
				sims[i].start, sims[i-1].end)
		}
	}
}

// TestSearchJobRetriesCounted runs a search whose every point aborts on a
// fault after exhausting its retries: the server's retry and abort counters
// see the search job's points exactly as they see grid points.
func TestSearchJobRetriesCounted(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{
		Workers:           2,
		MaxPointRetries:   2,
		PointRetryBackoff: time.Microsecond,
	})
	req := searchReq(16, 8, 8)
	req.Faults = &serve.FaultSpec{Seed: 1, DMATimeoutNS: 1}
	id := submitJob(t, ts.URL, req)
	if st := waitJob(t, ts.URL, id); st.State != "failed" {
		t.Fatalf("all-aborting search finished %q, want failed (empty front)", st.State)
	}
	snap := s.Snapshot()
	if snap.PointsAborted == 0 || snap.PointsAborted != snap.PointsSimulated {
		t.Fatalf("PointsAborted = %d of %d simulated, want every simulated point",
			snap.PointsAborted, snap.PointsSimulated)
	}
	if snap.PointRetries != 2*snap.PointsAborted {
		t.Fatalf("PointRetries = %d, want %d (2 per aborted point)",
			snap.PointRetries, 2*snap.PointsAborted)
	}
}

// TestShutdownInterruptsRetryBackoff shuts a server down while a grid job's
// points sit in a long retry backoff: cancellation ends the backoff, so
// Shutdown returns well within one backoff period and the job stays
// resumable.
func TestShutdownInterruptsRetryBackoff(t *testing.T) {
	const backoff = time.Second
	s := serve.New(serve.Options{
		Workers:           2,
		MaxPointRetries:   3,
		PointRetryBackoff: backoff,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := quickReq()
	req.Faults = &serve.FaultSpec{Seed: 1, DMATimeoutNS: 1}
	id := submitJob(t, ts.URL, req)
	// Every first attempt aborts within milliseconds; by now both slots'
	// points are waiting out their first backoff.
	time.Sleep(200 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > backoff/2 {
		t.Fatalf("Shutdown took %v with points in a %v backoff", took, backoff)
	}
	if st := getJob(t, ts.URL, id); st.State != "running" || st.Failed != 0 {
		t.Fatalf("interrupted job: %+v, want running with nothing failed", st)
	}
}

// TestGridExpansionBounded pins the bounds on grid expansion: repeated axis
// values collapse, and a grid past the cap is refused before it is
// enumerated, at an allocation cost bounded by the request body.
func TestGridExpansionBounded(t *testing.T) {
	ones := make([]int, 1000)
	for i := range ones {
		ones[i] = 1
	}
	dup := serve.SweepRequest{Kernel: "spmv-crs", Mem: "dma", Lanes: ones, Partitions: ones}
	if cfgs, err := dup.Configs(); err != nil || len(cfgs) != 1 {
		t.Fatalf("a thousand repeats of one value: %d configs, err %v; want 1", len(cfgs), err)
	}

	wide := make([]int, 1000)
	for i := range wide {
		wide[i] = i + 1
	}
	big := serve.SweepRequest{Kernel: "spmv-crs", Mem: "dma", Lanes: wide, Partitions: wide}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	var decoded serve.SweepRequest
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = decoded.Configs()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 10^6-point grid expanded without error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(body)) {
		t.Fatalf("rejecting a %d-byte request allocated %d bytes", len(body), alloc)
	}

	_, ts := newTestServer(t, serve.Options{Workers: 1})
	code, out := postSweep(t, ts.URL, dup)
	if code != http.StatusOK {
		t.Fatalf("deduplicated sweep: %d: %s", code, out)
	}
	if resp := decodeSweep(t, out); resp.RequestedPoints != 1 {
		t.Fatalf("deduplicated sweep requested %d points, want 1", resp.RequestedPoints)
	}
	if code, out := postSweep(t, ts.URL, big); code != http.StatusBadRequest {
		t.Fatalf("oversized sweep: %d, want 400: %s", code, out)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized job: %d, want 400", resp.StatusCode)
	}
}
