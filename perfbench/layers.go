package main

import "fmt"

// perLayer lists every per-layer metric a --trace 1 run reports, with its
// unit, in report order; BENCHMARK.json's per_layer list matches it. Every
// run prints all of them: a layer the workload's measured phase never calls
// reads 0 there (no calls, so no time and no work).
var perLayer = []struct{ name, unit string }{
	{"core.read.cpu_us", "us"},
	{"core.publish.cpu_us", "us"},
	{"core.write.cpu_us", "us"},
	{"core.sig_checks_per_query", "count"},
	{"core.explored_per_query", "count"},
	{"core.objects_verified_per_query", "count"},
	{"core.bytes_verified_per_query", "B"},
	{"core.clusters", "count"},
	{"core.reorg_rounds", "count"},
	{"core.splits", "count"},
	{"core.merges", "count"},
	{"core.explore_ratio", "ratio"},
	{"core.useful_ratio", "ratio"},
	{"pubsub.publish.self_cpu_us", "us"},
	{"pubsub.subscribe.self_cpu_us", "us"},
	{"pubsub.unsubscribe.self_cpu_us", "us"},
	{"pubsub.write_p50_us", "us"},
	{"pubsub.write_p99_us", "us"},
	{"pubsub.matches_per_event", "count"},
	{"diskengine.search.self_cpu_us", "us"},
	{"diskengine.seeks_per_query", "count"},
	{"diskengine.bytes_transferred_per_query", "B"},
	{"blockcache.hit_rate", "ratio"},
	{"blockcache.evictions_per_query", "count"},
	{"store.read.cpu_us", "us"},
	{"store.read.wall_us", "us"},
	{"store.reads_per_query", "count"},
	{"store.read_bytes_per_query", "B"},
	{"store.save.cpu_s", "s"},
	{"store.save.wall_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"host.steal_share", "ratio"},
	{"host.wall_ops_per_s", "1/s"},
	{"host.wall_read_p50_us", "us"},
	{"host.wall_read_p99_us", "us"},
	{"trace.overhead", "ratio"},
	{"trace.attributed_share", "ratio"},
}

// completeLayers orders ms as perLayer does and adds a 0 for every layer
// metric the workload did not produce. A metric missing from perLayer, or
// produced with another unit, is a bug in the benchmark.
func completeLayers(ms []metric) ([]metric, error) {
	got := make(map[string]metric, len(ms))
	for _, m := range ms {
		got[m.Name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := got[l.name]
		if !ok {
			m = metric{l.name, 0, l.unit}
		}
		if m.Unit != l.unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", m.Name, m.Unit, l.unit)
		}
		out = append(out, m)
		delete(got, l.name)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not a per-layer metric", name)
	}
	return out, nil
}
