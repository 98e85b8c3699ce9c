package accluster

import (
	"fmt"
	"io"
	"sync"
	"time"

	"accluster/internal/cost"
	"accluster/internal/telemetry"
)

// Telemetry is the engine flight recorder: a sampler goroutine captures
// per-second gauges from every attached engine (plus Go runtime stats) into
// a bounded in-memory ring, and the query paths of attached engines record
// per-query latency histograms. Attach engines with WithTelemetry, or give
// an engine its own private recorder + HTTP endpoint with WithTelemetryAddr.
//
// The memory bound is fixed: the ring holds at most WithTelemetryRing bytes
// (default 1 MiB) of delta-encoded samples — roughly several hours of
// per-second history for a typical gauge set — and evicts the oldest
// samples when full, so the recorder can stay on for the life of the
// process. WriteDump emits the ring in a compact checksummed binary format
// decoded by cmd/acstat; the live endpoint (Serve) additionally exposes
// current gauges and percentiles as JSON and expvar plus net/http/pprof.
type Telemetry struct {
	rec *telemetry.Recorder
	srv *telemetry.Server
}

// NewTelemetry builds a flight recorder shared by any number of engines and
// starts its sampler. Honored options: WithTelemetryRing,
// WithTelemetryInterval, and WithTelemetryAddr (which also starts the HTTP
// endpoint). Call Close when done.
func NewTelemetry(opts ...Option) (*Telemetry, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.telemetry != nil {
		return nil, fmt.Errorf("accluster: WithTelemetry is for engine constructors, not NewTelemetry")
	}
	t := newTelemetry(o)
	if o.telemetryAddr != "" {
		if _, err := t.Serve(o.telemetryAddr); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// newTelemetry builds and starts a recorder from gathered options.
func newTelemetry(o options) *Telemetry {
	rec := telemetry.New(telemetry.Config{
		RingBytes: o.telemetryRing,
		Interval:  o.telemetryInterval,
	})
	rec.Register(telemetry.RuntimeSource())
	rec.Start()
	return &Telemetry{rec: rec}
}

// Serve starts the live introspection endpoint on addr (":0" picks a free
// port) and returns the bound address. Routes: /telemetry (JSON gauges +
// histogram percentiles), /telemetry/dump (binary ring dump), /debug/vars
// (expvar), /debug/pprof/. Serving twice returns the existing address.
func (t *Telemetry) Serve(addr string) (string, error) {
	if t.srv != nil {
		return t.srv.Addr(), nil
	}
	srv, err := telemetry.Serve(t.rec, addr)
	if err != nil {
		return "", err
	}
	t.srv = srv
	return srv.Addr(), nil
}

// Addr returns the endpoint's bound address ("" when not serving).
func (t *Telemetry) Addr() string {
	if t.srv == nil {
		return ""
	}
	return t.srv.Addr()
}

// WriteDump writes the current ring contents and histogram counters to w in
// the binary dump format (decode with cmd/acstat). The recorder keeps
// running.
func (t *Telemetry) WriteDump(w io.Writer) error { return t.rec.DumpTo(w) }

// Sample captures one gauge row immediately, in addition to the periodic
// sampler; useful for deterministic tests and final pre-dump snapshots.
func (t *Telemetry) Sample() { t.rec.Sample() }

// Close stops the sampler and the HTTP endpoint (if serving). Attached
// engines stay usable; their histogram recording becomes inert overhead of
// one atomic add per query.
func (t *Telemetry) Close() error {
	if t.srv != nil {
		_ = t.srv.Close()
		t.srv = nil
	}
	return t.rec.Close()
}

// resolveTelemetry maps the gathered options to an engine's recorder:
// the shared one from WithTelemetry, a new owned one (serving HTTP) from
// WithTelemetryAddr, or none.
func resolveTelemetry(o options) (t *Telemetry, owned bool, err error) {
	if o.telemetry != nil {
		return o.telemetry, false, nil
	}
	if o.telemetryAddr == "" {
		return nil, false, nil
	}
	t = newTelemetry(o)
	if _, err := t.Serve(o.telemetryAddr); err != nil {
		t.Close()
		return nil, false, err
	}
	return t, true, nil
}

// meterCols is the gauge schema shared by every engine source: the full
// cost.SyncMeter counter set.
var meterCols = []string{
	"queries", "sig_checks", "explorations", "seeks", "objects_verified",
	"bytes_verified", "bytes_transferred", "cache_hits", "cache_misses", "results",
}

func appendMeter(dst []int64, m cost.Meter) []int64 {
	return append(dst, m.Queries, m.SigChecks, m.Explorations, m.Seeks,
		m.ObjectsVerified, m.BytesVerified, m.BytesTransferred,
		m.CacheHits, m.CacheMisses, m.Results)
}

// engineTelemetry is the flight-recorder attachment every engine embeds: the
// recorder, whether the engine owns it (WithTelemetryAddr) and the
// per-query latency histogram, nil when telemetry is off.
type engineTelemetry struct {
	tel       *Telemetry
	ownTel    bool
	qhist     *telemetry.Histogram
	closeOnce sync.Once
}

// attachTelemetry resolves the options' recorder and registers the engine's
// gauge source and latency histogram on it. Without telemetry it does
// nothing, and the source is never built.
func (et *engineTelemetry) attachTelemetry(o options, source func() telemetry.Source) error {
	t, owned, err := resolveTelemetry(o)
	if err != nil || t == nil {
		return err
	}
	et.tel, et.ownTel = t, owned
	name := t.rec.Register(source())
	et.qhist = t.rec.Histogram(name + ".search_ns")
	return nil
}

// begin starts one query's latency capture, reading the clock only when
// telemetry is on. The capture is branch-guarded rather than deferred so
// warm query paths stay allocation-free with telemetry on.
func (et *engineTelemetry) begin() time.Time {
	if et.qhist == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the latency of the query begun at t0.
func (et *engineTelemetry) end(t0 time.Time) {
	if et.qhist != nil {
		et.qhist.RecordSince(t0)
	}
}

// closeTelemetry stops an engine-owned recorder exactly once, however many
// Close calls race; a shared recorder (WithTelemetry) is left running.
func (et *engineTelemetry) closeTelemetry() {
	et.closeOnce.Do(func() {
		if et.ownTel {
			_ = et.tel.Close()
		}
	})
}

// TelemetryAddr returns the bound address of the engine's live
// introspection endpoint ("" when the engine was not built with
// WithTelemetryAddr); useful with ":0".
func (et *engineTelemetry) TelemetryAddr() string {
	if et.tel == nil {
		return ""
	}
	return et.tel.Addr()
}

// initTelemetry attaches the adaptive index to the options' recorder:
// a gauge source covering object/cluster counts, reorg queue depth, the
// pending-stats backlog, the epoch and the full meter, plus the per-query
// latency histogram on the search paths.
func (a *Adaptive) initTelemetry(o options) error {
	return a.attachTelemetry(o, func() telemetry.Source {
		return telemetry.Source{
			Name: "adaptive",
			Cols: append([]string{"objects", "clusters", "reorg_backlog", "stats_backlog",
				"epoch", "reorg_rounds", "splits", "merges"}, meterCols...),
			Read: func(dst []int64) []int64 {
				in := a.l.Info()
				dst = append(dst, int64(in.Objects), int64(in.Clusters),
					int64(in.ReorgBacklog), int64(in.StatsBacklog),
					in.Epoch, in.ReorgRounds, in.Splits, in.Merges)
				return appendMeter(dst, in.Meter)
			},
		}
	})
}

// initTelemetry attaches the sharded index: engine-wide aggregates plus
// per-shard object/cluster counts and reorg backlogs (the shard count is
// fixed for the life of the engine, so the column schema is static).
func (s *Sharded) initTelemetry(o options) error {
	return s.attachTelemetry(o, func() telemetry.Source {
		cols := append([]string{"objects", "clusters", "reorg_backlog", "stats_backlog", "epoch",
			"generation", "quarantined"}, meterCols...)
		for i := 0; i < s.e.Shards(); i++ {
			cols = append(cols,
				fmt.Sprintf("shard%d_objects", i),
				fmt.Sprintf("shard%d_clusters", i),
				fmt.Sprintf("shard%d_reorg_backlog", i))
		}
		return telemetry.Source{
			Name: "sharded",
			Cols: cols,
			Read: func(dst []int64) []int64 {
				infos := s.e.ShardInfos()
				var objects, clusters, reorgQ, statsQ int64
				var epoch int64
				for _, in := range infos {
					objects += int64(in.Objects)
					clusters += int64(in.Clusters)
					reorgQ += int64(in.ReorgBacklog)
					statsQ += int64(in.StatsBacklog)
					if in.Epoch > epoch {
						epoch = in.Epoch
					}
				}
				dst = append(dst, objects, clusters, reorgQ, statsQ, epoch,
					int64(s.e.Generation()), int64(s.e.QuarantinedCount()))
				dst = appendMeter(dst, s.e.Meter())
				for _, in := range infos {
					dst = append(dst, int64(in.Objects), int64(in.Clusters), int64(in.ReorgBacklog))
				}
				return dst
			},
		}
	})
}

// initTelemetry attaches the disk query engine: the meter plus the decoded-
// region cache gauges (hits/misses are part of the meter; residency,
// eviction and pinning figures come from the cache itself).
func (d *Disk) initTelemetry(o options) error {
	return d.attachTelemetry(o, func() telemetry.Source {
		return telemetry.Source{
			Name: "disk",
			Cols: append(append([]string{}, meterCols...),
				"cache_entries", "cache_pinned", "cache_pinned_bytes",
				"cache_used_bytes", "cache_budget_bytes", "cache_evictions", "cache_rejected"),
			Read: func(dst []int64) []int64 {
				dst = appendMeter(dst, d.eng.Meter())
				cs := d.eng.CacheStats()
				return append(dst, int64(cs.Entries), int64(cs.Pinned), cs.PinnedBytes,
					cs.UsedBytes, cs.BudgetBytes, cs.Evictions, cs.Rejected)
			},
		}
	})
}
