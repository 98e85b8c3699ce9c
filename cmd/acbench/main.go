// Command acbench regenerates the paper's evaluation (EDBT 2004, Saita &
// Llirbat, "Clustering Multidimensional Extended Objects to Speed Up
// Execution of Spatial Queries"): Fig. 7 (selectivity sweep), Fig. 8
// (dimensionality sweep over skewed data), the point-enclosing experiment,
// and the ablations indexed on harness.Experiments.
//
// Usage:
//
//	acbench -exp fig7 -n 200000 -queries 200
//	acbench -exp all -n 50000 -csv results.csv
//	acbench -exp point -cpuprofile cpu.out
//
// Microbenchmarks are Go benchmarks (go test -bench) and the end-to-end
// record is perfbench; acbench only regenerates the paper's figures and
// tables.
//
// The tables print the modeled per-query execution time under both storage
// scenarios (paper cost constants: 15 ms disk access, 20 MB/s transfer,
// 300 MB/s verification) plus measured wall time, partition counts and the
// explored/verified percentages of the paper's data-access tables. fig7,
// fig8 and point also run the one-cluster scan (the adaptive index with
// reorganization off) and note AC-mem's measured time over the scan's at
// every point.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"accluster/internal/harness"
	"accluster/internal/telemetry"
)

func main() {
	var (
		exps    = flag.String("exp", "fig7", "experiments to run: comma-separated list or 'all' ("+strings.Join(harness.Experiments(), ", ")+")")
		objects = flag.Int("n", 100000, "number of database objects")
		dims    = flag.Int("dims", 16, "space dimensionality (selectivity experiments)")
		queries = flag.Int("queries", 200, "measured queries per experiment point")
		warmup  = flag.Int("warmup", 1000, "warm-up queries before measuring (clustering convergence)")
		reorg   = flag.Int("reorg", 100, "queries between reorganization rounds")
		seed    = flag.Int64("seed", 1, "workload seed")
		maxSize = flag.Float64("maxsize", 1, "maximum object interval size per dimension")
		shards  = flag.Int("shards", 0, "max shard count for the sharded experiment: sweep doubles 1,2,4,...,N (0 = default sweep 1,2,4,8)")
		csvPath = flag.String("csv", "", "also write results as CSV to this file")
		charts  = flag.Bool("chart", false, "also draw ASCII charts (the paper's figure shapes)")
		verbose = flag.Bool("v", false, "log progress to stderr")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telAddr    = flag.String("telemetry", "", "serve the flight-recorder introspection endpoint (runtime gauges, pprof, ring dump) on this address while the experiments run")
	)
	flag.Parse()

	if *telAddr != "" {
		rec := telemetry.New(telemetry.Config{})
		rec.Register(telemetry.RuntimeSource())
		rec.Start()
		defer rec.Close()
		srv, err := telemetry.Serve(rec, *telAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acbench: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "acbench: telemetry on http://%s/telemetry\n", srv.Addr())
	}

	o := harness.Options{
		Objects:    *objects,
		Dims:       *dims,
		Queries:    *queries,
		Warmup:     *warmup,
		ReorgEvery: *reorg,
		Seed:       *seed,
		MaxObjSize: float32(*maxSize),
	}
	if *shards > 0 {
		for k := 1; ; k <<= 1 {
			o.ShardSweep = append(o.ShardSweep, k)
			if k >= *shards {
				break
			}
		}
	}
	if *verbose {
		o.Log = os.Stderr
	}

	// run executes inside this wrapper (instead of os.Exit-ing in place)
	// so the profile defers flush even when an experiment fails — a
	// truncated CPU profile is useless in exactly the debugging session
	// the flags exist for.
	err := func() error {
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			defer pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "acbench: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "acbench: memprofile: %v\n", err)
				}
			}()
		}
		return run(o, *exps, *csvPath, *charts)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "acbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o harness.Options, exps, csvPath string, charts bool) error {
	ids := strings.Split(exps, ",")
	if exps == "all" {
		ids = harness.Experiments()
	}

	var csv *os.File
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		exp, err := harness.Run(id, o)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := exp.Render(os.Stdout); err != nil {
			return fmt.Errorf("render %s: %w", id, err)
		}
		if charts && len(exp.Points) > 1 {
			// Memory chart on a linear scale, disk chart on a log
			// scale, as in the paper's figures.
			if err := exp.RenderChart(os.Stdout, false, false); err != nil {
				fmt.Fprintf(os.Stderr, "acbench: chart %s: %v\n", id, err)
			}
			if err := exp.RenderChart(os.Stdout, true, true); err != nil {
				fmt.Fprintf(os.Stderr, "acbench: chart %s: %v\n", id, err)
			}
		}
		if csv != nil {
			if err := exp.CSV(csv); err != nil {
				return fmt.Errorf("csv %s: %w", id, err)
			}
		}
	}
	return nil
}
