// Package accluster is a Go implementation of the adaptive cost-based
// clustering index for multidimensional extended objects described in
//
//	Cristian-Augustin Saita, François Llirbat:
//	"Clustering Multidimensional Extended Objects to Speed Up Execution of
//	Spatial Queries", EDBT 2004.
//
// A multidimensional extended object (hyper-rectangle) defines a range
// interval in every dimension of a [0,1]^d data space. The package answers
// spatial selections over large collections of such objects:
//
//   - intersection queries: objects overlapping a query rectangle,
//   - containment queries: objects contained in a query rectangle,
//   - enclosure queries: objects enclosing a query rectangle — with
//     point-enclosing queries (an event point against a subscription
//     database) as the motivating special case.
//
// The primary index, NewAdaptive, clusters objects with similar interval
// bounds on a restrained number of dimensions and adapts the clustering to
// the observed data and query distributions with a cost model of the storage
// scenario (in-memory or disk-based). Two baselines from the paper's
// evaluation are provided under the same interface: NewSeqScan (sequential
// scan) and NewRStar (the R*-tree of Beckmann et al. 1990).
//
// # Quick start
//
//	ix, _ := accluster.NewAdaptive(16)
//	_ = ix.Insert(1, accluster.MustRect(
//		[]float32{0.1, 0.2 /* ... */}, []float32{0.3, 0.4 /* ... */}))
//	ids, _ := ix.SearchIDs(q, accluster.Intersects)
//
// # Reorganization
//
// The adaptive index pays for cheap queries with periodic reorganization:
// every WithReorgEvery queries (default 100) a reorganization epoch begins,
// aging the query statistics by WithDecay and queueing every materialized
// cluster for a cost-model revisit — merge into the parent when profitable,
// otherwise materialize profitable candidate subclusters (§3.4). The queue
// is ordered by each cluster's last observed benefit and drained
// incrementally: by default each query runs one bounded step
// (WithReorgBudget, default 32 cluster revisits and 128 object relocations;
// merges and materializations are chunked, so the relocation bound caps
// every step outright). The worst query therefore carries a bounded slice
// of maintenance instead of a stop-the-world full pass — pass Unbudgeted
// budgets to restore the synchronous behaviour.
//
// Statistics aging is equivalent under either schedule: the window decays
// eagerly once per epoch and per-cluster indicators decay lazily by
// Decay^(elapsed epochs) when next touched, so every access probability a
// reorganization decision reads matches what the synchronous full pass
// would have used; only the position of the merge/split work in the query
// stream moves.
//
// WithBackgroundReorg moves even the bounded steps off the query path:
// queries only schedule work, and a drainer goroutine per index (per shard
// for NewSharded) acquires the engine lock once per step. Indexes built
// with it own a goroutine — call Close when done. Reorganize still forces a
// full round synchronously, the convergence hook after bulk loading and in
// calibration.
//
// # Concurrency
//
// All indexes are safe for concurrent use, and on the adaptive engines
// searches take a shared lock: any number of concurrent Search, SearchIDs,
// SearchIDsAppend, Count and Get calls execute in parallel — on NewAdaptive
// within the one index, on NewSharded within every shard as well as across
// shards — while Insert, Update, Delete and reorganization steps take the
// lock exclusive. Read-only query throughput therefore scales with client
// goroutines × cores, not with the shard count alone.
//
// The paper couples every query with statistics bookkeeping; the query path
// splits that off: each search records its statistics updates privately and
// publishes them after its shared phase, under a brief exclusive
// acquisition taken only when the lock is free (blocking once a small
// backlog watermark is reached). Reorganization maintenance likewise runs
// between queries — piggybacked on those publication slots, or on the
// WithBackgroundReorg drainer goroutine — so readers never wait on
// maintenance. Published increments are exactly the serial ones, so after
// the backlog drains (any mutation, Reorganize, or an idle-lock moment),
// concurrent and serial execution of the same query set leave identical
// clustering statistics up to the commutative reordering of additions. emit
// callbacks must not call back into the same index.
//
// One internal type owns that lock discipline: a core index behind its
// reader/writer lock, which runs the read phases under the shared lock,
// publishes after RUnlock, takes the lock exclusively for mutations, saves
// and invariant checks, and starts and stops the background drainer.
// NewAdaptive holds one, every shard of NewSharded is one, and the pub/sub
// broker runs on the sharded engine. Close is idempotent and safe to call
// concurrently on every engine.
//
// NewSharded remains the multi-core engine of choice for mixed workloads:
// it hash-partitions objects by id across independent adaptive indexes (one
// reader/writer lock each), routes Insert, Update, Delete and Get to the
// owning shard — mutations on different shards run in parallel — and fans
// every Search out to all shards on a bounded worker pool. It returns
// exactly the same result sets as NewAdaptive over the same data.
//
// NewSeqScan, NewRStar and NewXTree serialize on a single mutex (their
// searches mutate traversal state), capping each at one core. They share
// one implementation of Index, with every query method built on the access
// method's Search.
//
// Pick NewAdaptive for read-heavy workloads, when reproducing the paper's
// experiments (one clustering over the whole database), or when modeled
// cost accounting per clustering decision matters; pick NewSharded when
// mutations must also scale or query fan-out should use every core.
//
// # Storage layout and allocation behaviour
//
// Internally each cluster stores its members in column-major
// (structure-of-arrays) order: one contiguous lo/hi float32 column per
// dimension, plus a flat side-array mirroring every cluster signature. A
// selection therefore runs as two linear scans — signatures first, then,
// per explored cluster, a bitmap-driven block scan of the dimension columns
// (most selective dimensions first, early exit when the bitmap empties,
// columns skipped entirely when the signature already proves them). The
// on-disk store format keeps the interleaved row-major layout and is
// transposed at save/load, so segments persist unchanged across versions;
// since format version 2 each segment also carries the adaptive query
// statistics (per-cluster and per-candidate indicators plus the decayed
// window), so OpenAdaptive and OpenSharded resume adaptation warm instead
// of re-learning the query distribution from scratch. Version-1 segments
// still load and re-gather statistics.
//
// Steady-state searches on Adaptive and Disk are allocation-free: the
// verification bitmap, the matching-cluster list and the statistics delta
// live in pooled per-query scratch (each in-flight concurrent query owns its
// own set), and SearchIDsAppend reuses the caller's result buffer. The
// sharded engine merges its fan-out through pooled per-shard buffers, but
// the fan-out itself allocates: a warm SearchIDsAppend with a reused buffer
// makes one allocation on one shard (the fan-out closure) and, at
// GOMAXPROCS 2, seven on two or four shards (the worker goroutines on top).
// Use SearchIDsAppend
// with a retained buffer in hot loops; SearchIDs is the convenience form
// that allocates a fresh result slice per call.
//
// # Batched queries
//
// SearchIDsBatch answers N queries in one engine pass: the signature mirror
// is scanned once for the whole batch (the query rectangles become
// per-dimension coordinate columns and each signature the scalar side of
// the columnar kernels), every matched cluster is verified against all its
// interested queries while its member columns are hot, and the whole
// batch's statistics publish as a single mailbox entry. Per-query answers,
// meters and clustering statistics are exactly those of looping
// SearchIDsAppend — batching saves passes, never work accounting. The batch
// pass is the only read path of the adaptive and disk engines: Search,
// SearchIDs, SearchIDsAppend and Count run as a batch of one, whose
// signature pass is the single-query mirror scan, and every read records
// its statistics rather than applying them in place. A batch
// of all-point queries (Min == Max everywhere, the pub/sub event regime)
// takes a faster kernel still: the batch's coordinates are sorted once per
// dimension and each signature binary-searches its narrowest membership
// interval — precomputed alongside the mirror — instead of scanning the
// batch. On the disk engine a batch unions the cluster misses of all
// queries into one coalesced, seek-ordered read plan, probing the region
// cache once per distinct cluster. Reuse the *BatchResult across calls for
// allocation-free steady state; every engine supports the call (the
// baselines loop internally), and the networked broker coalesces queued
// publishes into the pub/sub tier's PublishBatch.
//
// # Disk scenario
//
// OpenDisk queries a SaveFile checkpoint directly in the paper's disk
// storage scenario (§5.ii): only the directory and signatures are loaded —
// member regions stay on the device — so databases far larger than RAM
// remain queryable. Explored regions pass through a fixed-budget cache of
// decoded columns (WithDiskCache, default 64 MiB, CLOCK eviction, pinned
// while concurrent searches verify against them): a cache hit verifies in
// memory and charges no Seeks and no BytesTransferred (Stats.CacheHits and
// Stats.CacheMisses record the split; ObjectsVerified accrues either way),
// while missed regions are fetched with seek-coalescing readahead
// (WithReadahead, default 256 KiB) — regions adjacent or near-adjacent on
// the device merge into single sequential reads, one Seek each. The cache
// is invalidated by reopening: a Disk opened after a new SaveFile starts a
// fresh cache generation. Fully cached selections allocate nothing.
//
// # Durability and recovery
//
// Checkpoints are atomic and generational. SaveFile writes the new image to
// a temporary file, syncs it and the directory, then renames it over the
// old checkpoint; SaveDir writes a complete new generation of per-shard
// segments and commits it by atomically flipping the checksummed manifest,
// garbage-collecting the previous generation only after the flip. A crash,
// I/O error or full disk at any point therefore leaves either the previous
// checkpoint or the new one loadable — never a torn mix, never total loss
// (the property is proven by power-fail loop tests that crash a save at
// every injectable I/O operation; see internal/faultio). Every load
// validates every checksum; integrity failures wrap ErrCorrupt and carry a
// *CorruptError detail. OpenSharded with WithSalvage degrades instead of
// failing when segments are damaged: corrupt shards are quarantined and the
// healthy partitions served, with the damage reported by Quarantined and
// Stats.QuarantinedPartitions and repaired online via RestoreQuarantined —
// or offline with cmd/acfsck, which verifies checkpoints and restores
// damaged segments from a peer copy.
//
// # Observability
//
// Every engine accepts a flight recorder: WithTelemetry attaches a shared
// Telemetry whose sampler captures engine gauges (object/cluster counts,
// the operation meter, reorg backlog and epoch, per-shard counts, region
// cache residency, Go runtime stats) once per interval into a fixed-budget
// in-memory ring, and records every query's latency into a log-bucketed
// histogram — one atomic increment plus one atomic add, preserving the
// allocation-free warm search path. WithTelemetryAddr instead gives the
// engine its own recorder plus a live introspection endpoint serving
// /telemetry (JSON), /telemetry/dump (the delta-encoded, CRC-checksummed
// binary ring dump — decode with cmd/acstat), expvar and net/http/pprof;
// the endpoint stops with Close. Recorder memory is bounded by
// construction (WithTelemetryRing): the ring evicts whole chunks
// oldest-first and each chunk carries its own schema, so old dumps stay
// decodable.
//
// # Networked notification
//
// The §1 selective-dissemination broker (internal/pubsub) also serves over
// TCP: internal/netbroker wraps a pubsub.Broker in a streaming server —
// standing subscriptions registered over the wire, matches pushed to
// subscribers as events arrive — with a reconnecting client on the other
// end. Frames are length-prefixed and CRC-checked (corruption wraps
// ErrCorrupt and closes the connection, mirroring the storage integrity
// convention), slow consumers degrade per a configurable bounded-queue
// policy (drop-oldest, drop-newest or disconnect), dead peers are detected
// by heartbeat, and the client redials with capped jittered backoff and
// re-registers its subscriptions. cmd/sdid -listen / -connect serve and
// drive a broker interactively; cmd/acbench -brokerjson runs the loopback
// load harness behind BENCH_broker.json.
//
// # Enforced invariants
//
// Several of the guarantees above are conventions the compiler cannot
// check: read paths hold only the shared lock and never call exclusive
// operations, statistics publication (TryDrainStats) happens strictly after
// RUnlock, the warm search paths allocate nothing, cost-meter counts are
// recorded into per-query scratch and published through SyncMeter.Merge,
// and every integrity failure wraps ErrCorrupt so errors.Is can classify
// it. These invariants are machine-enforced by cmd/acvet, a static-analysis
// suite (internal/analysis) run in CI as a `go vet -vettool` backend. The
// contracts are declared in source with annotations — //ac:excl marks
// operations requiring the write lock, //ac:noalloc pins a function as an
// allocation-free hot path (also driven at runtime by
// TestNoAllocAnnotatedPaths under testing.AllocsPerRun), //ac:scratch and
// //ac:serialmeter mark the approved meter-mutation containers — and a
// finding is suppressed only by an "//acvet:ignore <analyzer>
// <justification>" comment whose justification is mandatory.
package accluster
