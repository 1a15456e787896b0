// Command perfbench is the repository's benchmark. Each invocation runs one
// named workload at one seed in its own process:
//
//	go run . --workload sweep-grid --seed 1 --seconds 30 --trace 0
//
// It generates every input from the seed before timing starts, sets the
// system up several times and reports the median set-up time, measures for
// --seconds, checks the program's outputs, prints each workload-specific
// figure with its unit, and ends with one JSON line of the form
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}. With
// --trace 0 the metrics are the end-to-end ones; --trace 1 runs the same
// seed untraced and then traced (twice the time), and reports the per-layer
// metrics and the tracing overhead instead. --benchmark-json prints BENCHMARK.json.
//
// Simulated caches start empty on every design point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/soc"
)

// workload is one traffic mix. setup builds what the timed phase needs and
// replaces any earlier set-up; pass runs one timed unit of work (serve-mixed
// runs until the deadline); verify runs the correctness checks that need
// the timed phase's outputs.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	pass(ctx context.Context, tr *tracer, until time.Time) (passResult, error)
	verify(ctx context.Context) (attempted, failed int, err error)
	detail() ([]detailLine, error)
	layers(s *spanSet, m map[string]float64) error
	close()
}

// passResult is one timed unit of work.
type passResult struct {
	wall time.Duration
	// points counts the design points delivered to the caller.
	points int
	// calls are the latencies of the pass's explorations, from issuing one
	// to holding its Pareto fronts: a dse.Sweep call of sweep-grid, the
	// cold searches of a search-front pass, a serve-mixed /sweep request.
	calls             []time.Duration
	attempted, failed int
}

// detailLine is a workload-specific figure printed before the result line.
type detailLine struct {
	Name  string
	Value any
	Unit  string
}

var workloads = map[string]struct {
	why string
	new func(seed uint64, workers, seconds int) (workload, error)
}{
	"sweep-grid": {"all 19 kernels x DMA/cache x lanes 1-16 x 3 fabrics through dse.Sweep, no store: simulation does the work",
		func(seed uint64, workers, _ int) (workload, error) { return newSweepWL(seed, workers), nil }},
	"search-front": {"8 durable adaptive searches through a store, then warm re-runs: search engine, store writes and reads",
		func(seed uint64, workers, _ int) (workload, error) { return newSearchWL(seed, workers), nil }},
	"serve-mixed": {"closed loop of nproc clients on cmd/serve: 75% cached repeats, 25% fresh 1-4 point grids",
		func(seed uint64, workers, seconds int) (workload, error) {
			return newServeWL(seed, workers, seconds)
		}},
}

// workloadOrder fixes the order BENCHMARK.json lists the workloads in.
var workloadOrder = []string{"sweep-grid", "search-front", "serve-mixed"}

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 5

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	benchJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *benchJSON {
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(workloadOrder, ","))
		os.Exit(2)
	}
	// One worker, client or connection per CPU.
	workers := runtime.NumCPU()
	w, err := wl.new(*seed, workers, *seconds)
	if err != nil {
		fatal(err)
	}
	defer w.close()
	out, err := run(context.Background(), w, *seconds, *trace == 1)
	if err != nil {
		w.close()
		fatal(err)
	}
	fmt.Printf("workload %s seed %d: %s; %d worker(s); simulated caches start empty on every design point\n",
		*name, *seed, wl.why, workers)
	for _, d := range out.detail {
		fmt.Printf("  %-30s %v %s\n", d.Name, d.Value, d.Unit)
	}
	enc, err := json.Marshal(out.result)
	if err != nil {
		w.close()
		fatal(err)
	}
	fmt.Println(string(enc))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runOutput struct {
	result result
	detail []detailLine
}

// phaseStats summarises one timed phase.
type phaseStats struct {
	passes []passResult
	setup  []float64 // seconds
	goEnd  goStats
	goBeg  goStats
	rss    float64
}

func (ps *phaseStats) endToEnd() map[string]float64 {
	var rates, calls []float64
	for _, p := range ps.passes {
		rates = append(rates, float64(p.points)/p.wall.Seconds())
		calls = append(calls, msAll(p.calls)...)
	}
	return map[string]float64{
		"setup_s":          median(ps.setup),
		"points_per_s":     median(rates),
		"time_to_front_ms": median(calls),
		"peak_rss_mb":      ps.rss,
	}
}

func (ps *phaseStats) points() int {
	n := 0
	for _, p := range ps.passes {
		n += p.points
	}
	return n
}

// run sets up, measures and checks one workload: it sets up setupReps times
// and measures for the budget, untraced. The traced run then does all of it
// again with tracing on, and compares the two.
func run(ctx context.Context, w workload, seconds int, traced bool) (*runOutput, error) {
	budget := time.Duration(seconds) * time.Second
	plain, err := measure(ctx, w, nil, budget)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var tp *phaseStats
	if traced {
		tr = newTracer()
		if tp, err = measure(ctx, w, tr, budget); err != nil {
			return nil, err
		}
	}
	out := &runOutput{result: result{Metrics: map[string]metricValue{}}}
	for _, ps := range []*phaseStats{plain, tp} {
		if ps == nil {
			continue
		}
		for _, p := range ps.passes {
			out.result.Attempted += p.attempted
			out.result.Failed += p.failed
		}
	}
	att, failed, err := w.verify(ctx)
	if err != nil {
		return nil, err
	}
	out.result.Attempted += att
	out.result.Failed += failed
	out.result.Correct = out.result.Failed == 0
	if out.detail, err = w.detail(); err != nil {
		return nil, err
	}

	e2e := plain.endToEnd()
	if !traced {
		for _, d := range endToEnd {
			v := e2e[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s measured %v", d.Name, v)
			}
			out.result.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		for _, d := range endToEnd {
			out.detail = append(out.detail, detailLine{d.Name, e2e[d.Name], d.Unit})
		}
		return out, nil
	}

	spans, err := tr.records()
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(filepath.Join(".bench_build", "trace",
		fmt.Sprintf("spans-%d.jsonl", os.Getpid()))); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	m["trace.build_ms"] = spans.totalMS("trace.build") / setupReps
	m["ddg.build_ms"] = spans.totalMS("ddg.build") / setupReps
	m["soc.compile_ms"] = spans.totalMS("soc.compile") / setupReps
	if err := w.layers(spans, m); err != nil {
		return nil, err
	}
	g0, g1 := plain.goBeg, plain.goEnd
	pts := float64(plain.points())
	m["go.allocs_per_point"] = ratio(float64(g1.mallocs-g0.mallocs), pts)
	m["go.alloc_bytes_per_point"] = ratio(float64(g1.allocBytes-g0.allocBytes), pts)
	m["go.gc_cpu_frac"] = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
	te := tp.endToEnd()
	for _, d := range endToEnd {
		a, b := e2e[d.Name], te[d.Name]
		if d.Better == "higher" {
			a, b = b, a
		}
		m["trace_overhead_pct."+d.Name] = (ratio(b, a) - 1) * 100
	}
	for _, d := range perLayer {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.result.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	var extra []string
	for k := range m {
		if _, ok := out.result.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared per-layer metrics %v", extra)
	}
	return out, nil
}

// measure sets the workload up setupReps times, then runs passes until the
// budget is spent (at least one).
func measure(ctx context.Context, w workload, tr *tracer, budget time.Duration) (*phaseStats, error) {
	ps := &phaseStats{}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ps.setup = append(ps.setup, time.Since(t0).Seconds())
		// Drop the previous set-up's garbage so that the peak RSS belongs
		// to one set-up and the timed phase, not to the repetitions.
		runtime.GC()
	}
	until := time.Now().Add(budget)
	ps.goBeg = readGoStats()
	for len(ps.passes) == 0 || time.Now().Before(until) {
		p, err := w.pass(ctx, tr, until)
		if err != nil {
			return nil, err
		}
		if p.attempted == 0 {
			break // the workload's inputs ran out
		}
		ps.passes = append(ps.passes, p)
	}
	ps.goEnd = readGoStats()
	ps.rss = maxRSSMB()
	return ps, nil
}

// buildKernels traces (running the kernel and checking its output against
// a pure-Go reference), builds the DDG of, and compiles each named kernel,
// with a span around each layer call.
func buildKernels(names []string, tr *tracer) (map[string]*soc.Compiled, error) {
	out := map[string]*soc.Compiled{}
	for _, name := range names {
		kb, err := machsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		s := tr.start("trace.build")
		t, err := kb.Build()
		s.EndSpan()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		s = tr.start("ddg.build")
		g := ddg.Build(t)
		s.EndSpan()
		s = tr.start("soc.compile")
		out[name] = soc.Compile(g)
		s.EndSpan()
	}
	return out, nil
}

type goStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	f := func(s metrics.Sample) float64 {
		if s.Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s.Value.Float64()
	}
	return goStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCPU: f(samples[0]), totalCPU: f(samples[1])}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratchDir makes a fresh directory for a run's stores inside the working
// directory, so the benchmark writes nowhere else.
func scratchDir(prefix string) (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}
