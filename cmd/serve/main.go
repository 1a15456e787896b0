// Command serve runs the sweep service: an HTTP front end over the
// design-space explorer with a content-addressed result cache, so repeated
// and concurrent sweeps of the same design points simulate once.
//
//	go run ./cmd/serve -addr localhost:8347 -store /var/lib/sweeps
//	curl -s localhost:8347/sweep -d '{"kernel":"spmv-crs","mem":"dma","lanes":[1,2],"partitions":[1,2]}'
//	curl -s localhost:8347/jobs  -d '{"kernel":"spmv-crs","full":true}'   # long-running job, 202 + job_id
//	curl -s localhost:8347/jobs  -d '{"kernel":"spmv-crs","mem":"cache","search":{"seed":7,"budget":200}}'  # adaptive search job
//	curl -s localhost:8347/jobs/<job-id>              # poll progress
//	curl -sN localhost:8347/jobs/<job-id>/results     # NDJSON stream, tails a running job
//	curl -s localhost:8347/statsz
//	curl -s localhost:8347/metrics            # Prometheus exposition
//	curl -s localhost:8347/trace/<trace-id>   # Perfetto JSON (with -spans)
//
// With -store, every simulated point and every job manifest is persisted to
// an append-only segment log: a restarted server warm-starts its cache from
// disk and resumes any job that was still running when the process died —
// kill -9 included.
//
// Observability is opt-in: -log enables structured slog records, -spans
// turns every request into a wall-clock trace fetchable by ID, -span-out
// appends each finished span as one JSON line, and -pprof exposes the
// net/http/pprof and runtime-metrics endpoints under /debug/.
//
// SIGINT/SIGTERM trigger a graceful drain: running jobs are interrupted
// (and resume on the next boot with -store), and in-flight sweeps finish,
// up to -drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"syscall"
	"time"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/serve"
	"gem5aladdin/internal/sim"
	"gem5aladdin/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8347", "listen address")
		workers   = flag.Int("workers", 0, "simulation slots: design points simulated at once across sweeps and jobs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "concurrent sweep requests before 429 backpressure (0 = default)")
		timeout   = flag.Duration("timeout", 0, "per-request budget (0 = default 2m)")
		cacheN    = flag.Int("cache", 0, "max cached design points (0 = default 65536)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		spans     = flag.Bool("spans", false, "trace every request as a span tree; GET /trace/{id} exports Perfetto JSON")
		spanOut   = flag.String("span-out", "", "append every finished span as one JSON line to this file (implies -spans)")
		slowPoint = flag.Duration("slow-point", 2*time.Second, "log a warning when one design point simulates longer than this (needs -log)")
		debug     = flag.Bool("pprof", false, "expose net/http/pprof and Go runtime metrics under /debug/")

		storeDir     = flag.String("store", "", "durable result store directory: sweep results survive restarts, interrupted jobs resume")
		pointTimeout = flag.Duration("point-timeout", 0, "per-point no-progress watchdog budget in VIRTUAL time (0 = off); a stalled point fails alone")
		pointRetries = flag.Int("point-retries", 2, "retries per point for fault-injection aborts (stalls and sanitizer hits never retry)")
		retryBackoff = flag.Duration("retry-backoff", 10*time.Millisecond, "base backoff between point retries (doubles per attempt, capped at 1s)")
		maxJobs      = flag.Int("max-jobs", 0, "concurrent running jobs before 429 (0 = default 16)")
		maxSearch    = flag.Int("max-search-budget", 0, "cap on evaluated points per adaptive-search job (0 = default 400)")
	)
	logf := report.AddLogFlags(flag.CommandLine)
	flag.Parse()

	lg, closeLog, err := logf.Logger()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := closeLog(); err != nil {
			log.Printf("closing log: %v", err)
		}
	}()

	var tracer *obs.SpanTracer
	if *spans || *spanOut != "" {
		var sink *os.File
		if *spanOut != "" {
			sink, err = os.Create(*spanOut)
			if err != nil {
				log.Fatal(err)
			}
			defer sink.Close()
		}
		if sink != nil {
			tracer = obs.NewSpanTracer(sink, 0)
		} else {
			tracer = obs.NewSpanTracer(nil, 0)
		}
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			log.Fatalf("opening result store: %v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
		}()
		stats := st.Stats()
		log.Printf("result store %s: %d records (%d bad, %d B torn tail dropped)",
			*storeDir, stats.Records, stats.BadRecords, stats.TornBytes)
	}

	s := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		CacheEntries:   *cacheN,
		Logger:         lg,
		Spans:          tracer,
		SlowPoint:      *slowPoint,
		Store:          st,
		// The point budget is virtual time: -point-timeout 1ms arms each
		// point's watchdog with 1 ms of SIMULATED time, so the same config
		// stalls identically on any host — the property that keeps resumed
		// jobs bit-identical.
		PointBudget:       sim.Tick((*pointTimeout).Nanoseconds()) * sim.Nanosecond,
		MaxPointRetries:   *pointRetries,
		PointRetryBackoff: *retryBackoff,
		MaxJobs:           *maxJobs,
		MaxSearchBudget:   *maxSearch,
	})

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if *debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/debug/runtime", runtimeMetrics)
	}
	hs := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("sweep service on http://%s (POST /sweep /jobs; GET /jobs/{id} /kernels /statsz /metrics /trace/{id})", *addr)
	if lg != nil {
		lg.Info("listening", "addr", *addr, "pprof", *debug, "spans", tracer != nil)
	}

	select {
	case err := <-errc:
		log.Fatal(err) // listen failure before any signal
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; draining in-flight sweeps (up to %v)", *drain)
	if lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelInfo, "signal received; draining",
			slog.String("budget", drain.String()))
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Shutdown(dctx); err != nil {
		log.Printf("service shutdown: %v", err)
	}
	log.Printf("drained")
}

// runtimeMetrics dumps the Go runtime/metrics catalog as JSON: heap, GC,
// goroutine, and scheduler gauges a scrape can alert on without a pprof
// round trip. Uint64 histogram distributions are summarized to counts.
func runtimeMetrics(w http.ResponseWriter, r *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := make(map[string]any, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			out[s.Name] = map[string]any{"samples": n}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
