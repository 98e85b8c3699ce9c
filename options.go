package accluster

import (
	"fmt"
	"math"
	"time"

	"accluster/internal/cost"
)

// Scenario holds the database and system parameters of a storage scenario
// for the cost model: signature check time (A), exploration setup and disk
// seek (B), and per-byte verification and transfer rates (C). The adaptive
// index bases its clustering decisions on the configured scenario; Stats
// converts operation counts into modeled time under any scenario.
type Scenario = cost.Params

// MemoryScenario returns the in-memory storage scenario with the paper's CPU
// cost constants (§6 Table 2) and no I/O costs.
func MemoryScenario() Scenario { return cost.Memory() }

// DiskScenario returns the disk-based storage scenario: 15 ms random access,
// 20 MB/s sequential transfer (§6 Table 2).
func DiskScenario() Scenario { return cost.Disk() }

// options collects the tunables of all index constructors; each constructor
// reads the fields relevant to it.
type options struct {
	scenario       cost.Params
	divisionFactor int
	reorgEvery     int
	decay          float64
	reorgClusters  int
	reorgObjects   int
	pageSize       int
	shards         int
	salvage        bool
	diskCache      int64
	diskCacheSet   bool
	readaheadGap   int64
	readaheadSet   bool

	telemetry         *Telemetry
	telemetryAddr     string
	telemetryRing     int
	telemetryInterval time.Duration

	// err records the first invalid option value. Validation happens at
	// the option layer, not only in the engine config: engine defaulting
	// maps the zero value to "use the default", so an explicitly tuned
	// zero (WithDecay(0), WithReorgEvery(0)) would otherwise be silently
	// replaced instead of rejected — the smuggling path this closes.
	err error
}

func (o *options) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("accluster: "+format, args...)
	}
}

// Option customizes an index constructor.
type Option func(*options)

func gatherOptions(opts []Option) (options, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if o.telemetry != nil && o.telemetryAddr != "" {
		o.fail("WithTelemetry and WithTelemetryAddr are mutually exclusive")
	}
	return o, o.err
}

// WithScenario selects the storage scenario whose cost parameters drive the
// adaptive clustering decisions (default MemoryScenario).
func WithScenario(s Scenario) Option {
	return func(o *options) { o.scenario = s }
}

// WithDivisionFactor sets the clustering function's division factor f
// (default 4): each dimension's variation intervals are cut into f
// subintervals when candidate subclusters are generated. f must be ≥ 2.
func WithDivisionFactor(f int) Option {
	return func(o *options) {
		if f < 2 {
			o.fail("division factor must be ≥ 2, got %d", f)
			return
		}
		o.divisionFactor = f
	}
}

// WithReorgEvery sets the number of queries between reorganization rounds
// (default 100). n must be ≥ 1: a non-positive period would disable the
// statistics decay schedule the cost model depends on.
func WithReorgEvery(n int) Option {
	return func(o *options) {
		if n < 1 {
			o.fail("reorganization period must be ≥ 1, got %d", n)
			return
		}
		o.reorgEvery = n
	}
}

// WithDecay sets the exponential forgetting factor applied to query
// statistics at every reorganization round (default 0.5; 1 never forgets).
// d must lie in (0,1]: zero or negative decay would erase the statistics
// window every round and NaN would poison every access probability.
func WithDecay(d float64) Option {
	return func(o *options) {
		if math.IsNaN(d) || d <= 0 || d > 1 {
			o.fail("decay must be in (0,1], got %g", d)
			return
		}
		o.decay = d
	}
}

// WithReorgBudget bounds one incremental reorganization step: at most
// clusters revisits and objects relocations per step (defaults 32 and 128;
// pass Unbudgeted for no bound, which reproduces the synchronous
// stop-the-world pass at every trigger). Merges and materializations are
// chunked across steps, so the object bound caps every step's relocation
// work outright.
func WithReorgBudget(clusters, objects int) Option {
	return func(o *options) {
		if clusters == 0 || objects == 0 {
			o.fail("reorg budget components must be positive or Unbudgeted, got %d/%d", clusters, objects)
			return
		}
		o.reorgClusters, o.reorgObjects = clusters, objects
	}
}

// Unbudgeted disables one bound of WithReorgBudget.
const Unbudgeted = -1

// WithPageSize sets the R*-tree node page size in bytes (default 16384).
func WithPageSize(bytes int) Option {
	return func(o *options) { o.pageSize = bytes }
}

// WithShards sets the sharded index's partition count, rounded up to a
// power of two (default: the next power of two ≥ GOMAXPROCS). The shard
// count is fixed for the life of the index and recorded by SaveDir — a
// loaded database keeps its save-time shard count.
func WithShards(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.fail("shard count must be ≥ 0, got %d", n)
			return
		}
		o.shards = n
	}
}

// WithSalvage lets OpenSharded degrade instead of fail when a checkpoint is
// damaged: segments whose checksums do not validate are quarantined — those
// shards start empty — and the remaining partitions are served normally.
// Selections on a degraded index return the answers of the healthy shards
// only. The damage is reported by Stats (QuarantinedPartitions) and
// Quarantined; repopulate with RestoreQuarantined or repair the directory
// offline with cmd/acfsck. Without this option any integrity failure aborts
// the open with an error wrapping ErrCorrupt. Other constructors ignore the
// option.
func WithSalvage() Option {
	return func(o *options) { o.salvage = true }
}

// WithDiskCache sets the decoded-region cache budget (bytes) of a disk
// query engine opened with OpenDisk (default 64 MiB). The cache holds
// decoded cluster regions in memory so repeat explorations skip the device
// entirely; 0 disables it (every exploration reads its region), negative is
// rejected. Other constructors ignore the option.
func WithDiskCache(bytes int64) Option {
	return func(o *options) {
		if bytes < 0 {
			o.fail("disk cache budget must be ≥ 0 bytes, got %d", bytes)
			return
		}
		o.diskCache, o.diskCacheSet = bytes, true
	}
}

// WithReadahead sets the seek-coalescing readahead gap (bytes) of a disk
// query engine opened with OpenDisk (default 256 KiB): regions explored by
// one query whose device gap is at most this many bytes are read in a
// single sequential transfer instead of paying one seek each. 0 disables
// coalescing, negative is rejected. Other constructors ignore the option.
func WithReadahead(gapBytes int64) Option {
	return func(o *options) {
		if gapBytes < 0 {
			o.fail("readahead gap must be ≥ 0 bytes, got %d", gapBytes)
			return
		}
		o.readaheadGap, o.readaheadSet = gapBytes, true
	}
}

// WithTelemetry attaches the engine to a shared flight recorder built with
// NewTelemetry: the engine registers its gauge source (sampled once per
// recorder interval) and records per-query latency into a histogram there.
// Several engines may share one recorder — each gets its own source and
// histogram. The recorder's lifetime belongs to its creator; closing the
// engine does not close a shared recorder. SeqScan/RStar (baselines) ignore
// the option.
func WithTelemetry(t *Telemetry) Option {
	return func(o *options) {
		if t == nil {
			o.fail("telemetry recorder must not be nil")
			return
		}
		o.telemetry = t
	}
}

// WithTelemetryAddr gives the engine a private flight recorder serving the
// live introspection endpoint on addr (":0" picks a free port): /telemetry
// JSON gauges and percentiles, /telemetry/dump binary ring dump, /debug/vars
// expvar and /debug/pprof. The engine owns the recorder — Close stops the
// sampler and the endpoint. Mutually exclusive with WithTelemetry.
func WithTelemetryAddr(addr string) Option {
	return func(o *options) {
		if addr == "" {
			o.fail("telemetry address must not be empty")
			return
		}
		o.telemetryAddr = addr
	}
}

// WithTelemetryRing bounds the flight recorder's in-memory ring (default
// 1 MiB of delta-encoded samples); the oldest samples are evicted when the
// budget fills, so memory use is fixed for the life of the process. Honored
// by NewTelemetry and WithTelemetryAddr.
func WithTelemetryRing(bytes int) Option {
	return func(o *options) {
		if bytes <= 0 {
			o.fail("telemetry ring must be > 0 bytes, got %d", bytes)
			return
		}
		o.telemetryRing = bytes
	}
}

// WithTelemetryInterval sets the flight recorder's sampling period (default
// 1 s). Honored by NewTelemetry and WithTelemetryAddr.
func WithTelemetryInterval(d time.Duration) Option {
	return func(o *options) {
		if d <= 0 {
			o.fail("telemetry interval must be positive, got %v", d)
			return
		}
		o.telemetryInterval = d
	}
}
