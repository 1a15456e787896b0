package main

import (
	"encoding/json"
	"io"
)

// metricDef declares an end-to-end metric with the share of the parent's
// median by which it may worsen before a change counts as a regression; the
// bounds come from the noise record in README.md.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics a user of the system sees. Each one means the
// same thing on every workload (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"time_to_front_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics. A layer the workload bypasses
// reports zero work and zero time.
var perLayer = func() []layerDef {
	var out []layerDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerDef{n, unit, better})
		}
	}
	add("ms", "lower", "trace.build_ms", "ddg.build_ms", "soc.compile_ms")
	add("us", "lower",
		"soc.run_us.dma.bus", "soc.run_us.dma.crossbar", "soc.run_us.dma.mesh",
		"soc.run_us.cache.bus", "soc.run_us.cache.crossbar", "soc.run_us.cache.mesh",
		"soc.run_us.traffic")
	add("ns/cycle", "lower", "soc.host_ns_per_cycle")
	add("count", "lower", "core.cycles", "core.active_cycles")
	add("ratio", "lower", "core.idle_cycle_frac")
	add("count", "lower", "core.ops_issued", "core.dep_stalls", "core.mem_stalls",
		"core.barrier_stalls", "sim.events_fired")
	add("ns/event", "lower", "sim.ns_per_event")
	add("ratio", "higher", "mem.cache.hit_ratio")
	add("count", "lower", "mem.cache.mshr_stalls")
	add("ratio", "higher", "mem.dram.row_hit_ratio")
	add("B", "lower", "mem.dma.bytes")
	add("count", "lower", "fabric.bus.transactions", "fabric.crossbar.transactions",
		"fabric.mesh.transactions")
	add("ns/txn", "lower", "fabric.bus.wait_ns_per_txn", "fabric.crossbar.wait_ns_per_txn",
		"fabric.mesh.wait_ns_per_txn")
	add("ratio", "higher", "dse.sweep.worker_busy_frac")
	add("ms", "lower", "dse.search.overhead_ms")
	add("count", "lower", "dse.search.rounds", "dse.search.evaluated", "dse.search.simulated")
	add("ratio", "higher", "dse.search.front_hv")
	add("count", "lower", "store.records")
	add("B", "lower", "store.bytes")
	add("1/s", "higher", "store.replay_points_per_s")
	add("ms", "lower", "serve.hit_p50_ms", "serve.miss_p50_ms", "serve.miss_p99_ms")
	add("ratio", "higher", "serve.cache_hit_ratio")
	add("count", "lower", "serve.rejected", "serve.point_retries")
	add("us", "lower", "serve.self_us.admission-wait", "serve.self_us.cache-lookup",
		"serve.self_us.queue-wait", "serve.self_us.simulate")
	add("%", "lower", "golden.model_err_pct")
	for _, k := range []string{"aes-aes", "fft-transpose", "gemm-ncubed", "md-knn",
		"nw-nw", "spmv-crs", "stencil-stencil2d", "stencil-stencil3d"} {
		add("%", "lower", "golden.err_pct."+k)
	}
	add("count", "lower", "go.allocs_per_point")
	add("B", "lower", "go.alloc_bytes_per_point")
	add("ratio", "lower", "go.gc_cpu_frac")
	for _, d := range endToEnd {
		add("%", "lower", "trace_overhead_pct."+d.Name)
	}
	return out
}()

// runSeconds is the length of one run's timed phase.
const runSeconds = 30

type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef declares a per-layer metric; per-layer metrics have no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, name := range workloadOrder {
		b.Workloads = append(b.Workloads, workloadDef{name, workloads[name].why})
	}
	return b
}

func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchmarkSpec())
}
