// Command machsuite lists the reimplemented MachSuite benchmarks, builds
// their dynamic traces, and verifies each against its pure-Go functional
// reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gem5aladdin/internal/ddg"
	"gem5aladdin/internal/machsuite"
	"gem5aladdin/internal/report"
	"gem5aladdin/internal/soc"
	"gem5aladdin/internal/stats"
)

func main() {
	verify := flag.Bool("verify", false, "build every trace and check functional correctness")
	export := flag.String("export", "", "directory to write serialized .trace files into")
	ob := report.AddObsFlags(flag.CommandLine, "simulate every benchmark under the default SoC config and ")
	rb := report.AddRobustFlags(flag.CommandLine)
	fb := report.AddFabricFlags(flag.CommandLine)
	logf := report.AddLogFlags(flag.CommandLine)
	flag.Parse()

	lg, closeLog, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeLog()

	o := ob.Observer()

	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	tb := stats.NewTable("benchmark", "ops", "iterations", "in(B)", "out(B)", "critpath", "description")
	for _, k := range machsuite.All() {
		tr, err := k.Build()
		if err != nil {
			if lg != nil {
				lg.Error("functional mismatch", "bench", k.Name, "err", err.Error())
			}
			fmt.Fprintf(os.Stderr, "%s: FUNCTIONAL MISMATCH: %v\n", k.Name, err)
			os.Exit(1)
		}
		g := ddg.Build(tr)
		if lg != nil {
			lg.Info("trace built", "bench", k.Name,
				"ops", tr.NumNodes(), "critpath", g.CritPath)
		}
		if *export != "" {
			path := filepath.Join(*export, k.Name+".trace")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := tr.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if o != nil {
			// Each benchmark gets its own path/track prefix in the shared
			// registry and tracer, so one dump covers the whole suite.
			cfg := soc.DefaultConfig()
			cfg.Obs = o.Sub(k.Name)
			if err := rb.Apply(&cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := fb.Apply(&cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := cfg.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if _, err := soc.Run(soc.Compile(g), cfg); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", k.Name, err)
				os.Exit(1)
			}
		}
		in, out := tr.FootprintBytes()
		desc := k.Description
		if len(desc) > 60 {
			desc = desc[:57] + "..."
		}
		tb.Row(k.Name, tr.NumNodes(), tr.Iters, in, out, g.CritPath, desc)
	}
	tb.Render(os.Stdout)
	if *verify {
		fmt.Println("\nall benchmarks verified against pure-Go references")
	}
	if o != nil {
		if err := ob.Write(o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
