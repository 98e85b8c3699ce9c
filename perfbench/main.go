// Command perfbench is accluster's benchmark: three seeded workloads, each
// driven by one client in a closed loop, timed on CPU clocks and checked
// against a brute-force oracle. See README.md for the workloads, the metrics
// and why they are read from CPU clocks.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload range-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 the run is repeated with spans
// around every layer call and the object carries the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named, unit-carrying figure of the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The driving goroutine stays on one OS thread so the thread CPU clock
	// brackets exactly its calls. With one P the collector also runs on that
	// thread, charged to the call that made the garbage: a second P would
	// run idle-priority mark workers whose CPU time, and whose cache traffic
	// beside the client, vary from run to run with GC timing.
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var (
		name    = flag.String("workload", "", "workload: range-mem, sdi-churn or disk-range")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "process CPU seconds the measured phase spends")
		trace   = flag.Int("trace", 0, "1 repeats the run with per-layer spans and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the disk checkpoint and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errFailed marks a run whose answers or determinism check failed: the
// result line is printed, then the command exits non-zero.
var errFailed = errors.New("answers or meters failed their checks")

func run(name string, seed int64, seconds, trace int, workdir string) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err := checkClocks(); err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	w, err := newWorkload(name, seed, tmp)
	if err != nil {
		return err
	}
	defer w.close()
	out := os.Stdout
	host := newHostRecord()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(out, "host %s\n", host)

	// Set-up, several times from the same inputs; the last engine stays.
	base := liveHeap()
	var setupCPU, setupWall, saveCPU, saveWall []float64
	for k := 0; k < setupRepeats; k++ {
		if err := w.close(); err != nil {
			return err
		}
		runtime.GC()
		var st setupTimer
		c0, w0 := processCPU(), wallNow()
		if err := w.setup(&st); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, float64(processCPU()-c0)/1e9)
		setupWall = append(setupWall, float64(wallNow()-w0)/1e9)
		saveCPU = append(saveCPU, float64(st.saveCPU)/1e9)
		saveWall = append(saveWall, float64(st.saveWall)/1e9)
	}
	fmt.Fprintf(out, "setup cpu_s=%.4f wall_s=%.4f (runs %s)\n", median(append([]float64(nil), setupCPU...)), median(append([]float64(nil), setupWall...)), fmtList(setupCPU))

	p, err := runPhase(w, time.Duration(seconds)*time.Second)
	if err != nil {
		return err
	}
	checked, mismatched := w.check(p.calls, p.digests)
	failed := p.failed + mismatched
	attempted := p.ops + p.writes
	// The untraced digests are kept only for the traced comparison, so the
	// live-heap reading of a --trace 0 run holds the engine and the inputs
	// alone.
	var untraced []digest
	if trace == 1 {
		untraced = p.digests
	}
	p.digests = nil
	var engineBytes float64
	if trace == 0 {
		if err := w.settle(); err != nil {
			return err
		}
		engineBytes = float64(int64(liveHeap()) - int64(base))
	}
	fmt.Fprintf(out, "phase ops=%d calls=%d cpu_s=%.4f wall_s=%.4f steal_share=%.4f gc_cycles=%d whole_ops_per_cpu_s=%.2f\n",
		p.ops, p.calls, float64(p.cpu)/1e9, float64(p.wall)/1e9, p.steal, p.rt.gcCycles, float64(p.ops)/(float64(p.cpu)/1e9))
	fmt.Fprintf(out, "windows ops_per_cpu_s %s\n", fmtList(p.windowRates))
	for _, m := range p.after {
		fmt.Fprintf(out, "count %s=%d (phase %+d)\n", m.Name, m.Value, m.Value-meterValue(p.before, m.Name))
	}
	fmt.Fprintf(out, "check answers_checked=%d mismatched=%d errors=%d failed_share=%.6f\n",
		checked, mismatched, p.failed, ratio(float64(failed), float64(attempted)))
	if p.firstErr != nil {
		fmt.Fprintf(out, "first error: %v\n", p.firstErr)
	}

	fmt.Fprintf(out, "read cpu_us %s %s\n", p.read[0], p.read[1])
	fmt.Fprintf(out, "read wall_us %s %s\n", p.readWall[0], p.readWall[1])
	if p.writes > 0 {
		fmt.Fprintf(out, "write cpu_us %s %s\n", p.write[0], p.write[1])
		fmt.Fprintf(out, "write wall_us %s %s\n", p.writeWall[0], p.writeWall[1])
	}

	var metrics []metric
	correct := failed == 0
	if trace == 0 {
		metrics = []metric{
			{"setup_s", median(setupCPU), "s"},
			{"ops_per_cpu_s", median(p.windowRates), "1/s"},
			{"read_p50_us", p.read[0].Value, "us"},
			{"read_p99_us", p.read[1].Value, "us"},
			{"bytes_per_obj", engineBytes / float64(w.objects()), "B"},
		}
	} else {
		if err := w.close(); err != nil {
			return err
		}
		tr, err := runTraced(w, p.calls)
		if err != nil {
			return err
		}
		same := compareMeters(out, p.after, tr.meters)
		diff := 0
		for i, d := range untraced {
			if i >= len(tr.digests) || tr.digests[i] != d {
				diff++
			}
		}
		if len(tr.digests) != len(untraced) || diff > 0 {
			fmt.Fprintf(out, "determinism: %d of %d answers differ between the untraced and traced runs (%d traced)\n", diff, len(untraced), len(tr.digests))
			same = false
			failed += diff
		}
		if err := w.tracedCheck(); err != nil {
			fmt.Fprintf(out, "determinism: %v\n", err)
			same = false
		}
		correct = correct && same
		fmt.Fprintf(out, "determinism traced_meters_equal=%t answers_compared=%d\n", same, len(untraced))
		metrics, err = completeLayers(append(commonLayers(p, tr, saveCPU, saveWall), w.layers(p, tr.layers, p.ops)...))
		if err != nil {
			return err
		}
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		fmt.Fprintf(out, "metric %s %.6g %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return errFailed
	}
	return nil
}

// newWorkload generates the named workload's inputs from seed; dir holds
// its files.
func newWorkload(name string, seed int64, dir string) (scenario, error) {
	switch name {
	case "range-mem":
		return newRangeMem(seed)
	case "sdi-churn":
		return newSDIChurn(seed)
	case "disk-range":
		return newDiskRange(seed, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want range-mem, sdi-churn or disk-range)", name)
}

func fmtList(vs []float64) string {
	s := "["
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", v)
	}
	return s + "]"
}
