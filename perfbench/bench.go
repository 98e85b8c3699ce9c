package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// setupRepeats is how many times a run builds its engine from the same
// inputs; setup_s is the median. Set-up is allocation heavy, so one build's
// CPU time moves with GC pacing and page faults; the median of three is
// steady where one reading is not.
const setupRepeats = 3

// minReads is the fewest read calls a measured phase makes, whatever its
// budget: p99 needs ten samples beyond it (see percentile).
const minReads = 1000

// windows is how many equal slices of process CPU time a measured phase is
// cut into for ops_per_cpu_s, which reports the median slice's rate: a
// neighbour that slows the shared host for a few seconds moves a minority
// of the slices and not the median.
const windows = 20

// recorder collects what the untraced measured phase observes: per-call CPU
// and wall latencies, one answer digest per operation, and failures.
type recorder struct {
	readCPU, readWall   []int64
	writeCPU, writeWall []int64
	digests             []digest
	failed              int
	firstErr            error
}

func newRecorder() *recorder {
	return &recorder{
		readCPU:  make([]int64, 0, 1<<13),
		readWall: make([]int64, 0, 1<<13),
		digests:  make([]digest, 0, 1<<16),
	}
}

// read records one read call timed from (c0, w0) to now.
func (r *recorder) read(c0, w0 int64) {
	c1, w1 := threadCPU(), wallNow()
	r.readCPU = append(r.readCPU, c1-c0)
	r.readWall = append(r.readWall, w1-w0)
}

// write records one write call timed from (c0, w0) to now.
func (r *recorder) write(c0, w0 int64) {
	c1, w1 := threadCPU(), wallNow()
	r.writeCPU = append(r.writeCPU, c1-c0)
	r.writeWall = append(r.writeWall, w1-w0)
}

// fail counts a failed call, keeping the first error for the report.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// meter is one named program counter, compared exactly between the
// untraced and traced runs.
type meter struct {
	Name  string
	Value int64
}

// scenario is one benchmark workload. Its inputs derive from the seed alone;
// the program sees only generated inputs, through its public API in the
// untraced run and through the layers the facade hides in the traced run.
type scenario interface {
	// objects is the number of objects the engine stores (bytes_per_obj).
	objects() int
	// setup builds a fresh engine through the public API, releasing the
	// previous one. Only program calls run inside it.
	setup(s *setupTimer) error
	// begin resets the measured op stream to its first operation.
	begin()
	// op runs operation i of the stream untraced and returns the number of
	// operations (queries or events) it counts for throughput.
	op(i int, r *recorder) int
	// meters reads the program's own counters.
	meters() []meter
	// settle brings the engine's memory to a state that does not depend on
	// the measured op stream, ahead of the live-heap reading.
	settle() error
	// check replays the first n ops of the stream against the brute-force
	// oracle and compares answer digests; it returns how many it checked
	// and how many differed.
	check(n int, digests []digest) (checked, failed int)
	// close releases the engine.
	close() error

	// setupTraced builds the engine for the traced run, calling the
	// layers directly in the facade's exact call sequence.
	setupTraced() error
	// opTraced runs operation i with a span around every layer call and
	// returns the answer digests it produced.
	opTraced(i int, t *tracer, dst []digest) []digest
	// tracedMeters reads the counters of the traced engine; they must
	// equal meters() of the untraced run.
	tracedMeters() []meter
	// tracedCheck reports any inconsistency inside the traced run itself
	// (a lockstep twin disagreeing with the engine it mirrors).
	tracedCheck() error
	// layers derives the per-layer metrics from the untraced phase and the
	// traced spans.
	layers(u *phase, spans map[string]*layerTime, ops int) []metric
}

// setupTimer carries the sub-step timings of one set-up: a workload times
// its SaveFile call with timeSave so the store layer gets its own figure.
type setupTimer struct {
	saveCPU, saveWall int64
}

// timeSave runs f, charging it as the store.save sub-step.
func (s *setupTimer) timeSave(f func() error) error {
	c0, w0 := processCPU(), wallNow()
	err := f()
	s.saveCPU, s.saveWall = processCPU()-c0, wallNow()-w0
	return err
}

// phase is what one untraced measured phase produced.
type phase struct {
	ops, calls    int
	cpu, wall     int64
	windowRates   []float64 // operations per CPU second of each slice
	steal         float64
	rt            rtSnapshot
	before, after []meter
	// p50 and p99 of the per-call CPU and wall latencies, in µs; the write
	// ones are zero where the workload makes no writes.
	read, readWall   [2]quantile
	write, writeWall [2]quantile
	writes           int
	digests          []digest
	failed           int
	firstErr         error
	meanOpCPU        float64 // µs of timed calls per operation
}

// delta returns the change of the named meter over the phase.
func (p *phase) delta(name string) int64 {
	return meterValue(p.after, name) - meterValue(p.before, name)
}

func meterValue(ms []meter, name string) int64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	panic("perfbench: unknown meter " + name)
}

// runPhase drives w in a closed loop until budget process-CPU time has been
// spent and at least minReads reads were timed, or until the wall-clock
// ceiling stops a pathologically slow program. Only the percentiles of the
// latency samples outlive it, so the live-heap reading that follows sees
// the engine and the inputs alone.
func runPhase(w scenario, budget time.Duration) (*phase, error) {
	rec := newRecorder()
	w.begin()
	runtime.GC()
	p := &phase{before: w.meters()}
	ceiling := wallNow() + int64(3*budget+60*time.Second)
	ticks0, _ := readTicks()
	rt0 := readRuntime()
	wall0, cpu0 := wallNow(), processCPU()
	var cpu, winStart int64
	winOps, slice := 0, int64(budget)/windows
	for i := 0; ; i++ {
		n := w.op(i, rec)
		p.ops += n
		winOps += n
		p.calls++
		cpu = processCPU() - cpu0
		if cpu-winStart >= slice {
			p.windowRates = append(p.windowRates, float64(winOps)/(float64(cpu-winStart)/1e9))
			winStart, winOps = cpu, 0
		}
		if (cpu >= int64(budget) && len(rec.readCPU) >= minReads) || wallNow() > ceiling {
			break
		}
	}
	p.cpu, p.wall = cpu, wallNow()-wall0
	p.rt = readRuntime().sub(rt0)
	ticks1, _ := readTicks()
	p.steal = stealShare(ticks0, ticks1)
	p.after = w.meters()
	var err error
	if p.read, err = tail(rec.readCPU); err != nil {
		return nil, err
	}
	if p.readWall, err = tail(rec.readWall); err != nil {
		return nil, err
	}
	if p.writes = len(rec.writeCPU); p.writes > 0 {
		if p.write, err = tail(rec.writeCPU); err != nil {
			return nil, err
		}
		if p.writeWall, err = tail(rec.writeWall); err != nil {
			return nil, err
		}
	}
	var timed int64
	for _, v := range rec.readCPU {
		timed += v
	}
	for _, v := range rec.writeCPU {
		timed += v
	}
	p.meanOpCPU = float64(timed) / float64(p.ops) / 1e3
	p.digests, p.failed, p.firstErr = rec.digests, rec.failed, rec.firstErr
	return p, nil
}

// tail returns the p50 and p99 of nanosecond samples, in microseconds.
func tail(ns []int64) ([2]quantile, error) {
	us := nsToMicros(ns)
	p50, err := percentile(us, 0.50)
	if err != nil {
		return [2]quantile{}, err
	}
	p99, err := percentile(us, 0.99)
	return [2]quantile{p50, p99}, err
}

// traced is what the traced run produced.
type traced struct {
	spans   []span
	layers  map[string]*layerTime
	digests []digest
	meters  []meter
}

// runTraced repeats the first calls operations of the stream on a freshly
// set-up engine with spans around every layer call.
func runTraced(w scenario, calls int) (*traced, error) {
	if err := w.setupTraced(); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	runtime.GC()
	t := &tracer{spans: make([]span, 0, 64*calls)}
	digests := make([]digest, 0, 1<<16)
	for i := 0; i < calls; i++ {
		digests = w.opTraced(i, t, digests)
	}
	return &traced{spans: t.spans, layers: selfTimes(t.spans), digests: digests, meters: w.tracedMeters()}, nil
}

// compareMeters reports every meter that differs between the untraced run's
// reading a and the traced run's reading b.
func compareMeters(out io.Writer, a, b []meter) bool {
	same := len(a) == len(b)
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			same = false
			var other meter
			if i < len(b) {
				other = b[i]
			}
			fmt.Fprintf(out, "determinism: meter %s untraced=%d traced %s=%d\n", a[i].Name, a[i].Value, other.Name, other.Value)
		}
	}
	return same
}

// rootSpan names the span around one whole operation of the traced run.
const rootSpan = "op"

// commonLayers returns the per-layer metrics every workload reports: the
// runtime's counters over the untraced phase, the host diagnostics, the
// store.save timings of set-up (zero where set-up saves nothing) and the
// tracing overhead and coverage.
func commonLayers(p *phase, tr *traced, saveCPU, saveWall []float64) []metric {
	root := tr.layers[rootSpan]
	var rootTotal, attributed int64
	if root != nil {
		rootTotal = root.Total
	}
	for name, lt := range tr.layers {
		if name != rootSpan {
			attributed += lt.Self
		}
	}
	ops := float64(p.ops)
	tracedPerOp := float64(rootTotal) / ops / 1e3
	return []metric{
		{"runtime.allocs_per_op", float64(p.rt.allocs) / ops, "count"},
		{"runtime.alloc_bytes_per_op", float64(p.rt.allocBytes) / ops, "B"},
		{"runtime.gc_cycles", float64(p.rt.gcCycles), "count"},
		{"runtime.gc_cpu_share", ratio(p.rt.gcCPU, float64(p.cpu)/1e9), "ratio"},
		{"store.save.cpu_s", median(saveCPU), "s"},
		{"store.save.wall_s", median(saveWall), "s"},
		{"host.steal_share", p.steal, "ratio"},
		{"host.wall_ops_per_s", ops / (float64(p.wall) / 1e9), "1/s"},
		{"host.wall_read_p50_us", p.readWall[0].Value, "us"},
		{"host.wall_read_p99_us", p.readWall[1].Value, "us"},
		{"trace.overhead", ratio(tracedPerOp, p.meanOpCPU) - 1, "ratio"},
		{"trace.attributed_share", ratio(float64(attributed), float64(rootTotal)), "ratio"},
	}
}
