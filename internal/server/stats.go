package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// serverStats aggregates the counters behind GET /stats. All counters
// live under one mutex and every update path mutates its counters in
// one critical section, so a snapshot — also taken under the lock —
// is always internally consistent: concurrent scrapes can never
// observe cache_hits + cache_misses != queries, an od_evaluations
// total from a different instant than the query count that produced
// it, or latency percentiles torn across a ring write. (The previous
// field-by-field atomic reads allowed all three.) Query latencies go
// into a bounded ring so percentiles reflect recent traffic without
// unbounded memory.
//
//hos:statslock mu
type serverStats struct {
	mu sync.Mutex

	queries   int64 // /query requests answered (cached or not)
	scans     int64 // /scan requests answered (sync or async job)
	errors    int64 // requests that failed (4xx/5xx, server's fault or client's mistake)
	cacheHits int64
	cacheMiss int64
	inFlight  int64
	odEvals   int64 // OD computations spent on /query and /batch work

	// clientCancelled counts requests whose client closed the
	// connection mid-computation. They are NOT errors: the server did
	// nothing wrong, so folding them into the error counter (as the
	// old 503-on-disconnect path did) corrupted error-rate monitoring.
	clientCancelled int64
	// registryConflicts counts 409s from /datasets/load admission
	// (duplicate name, registry full) and datasetNotFound counts 404s
	// from requests naming an unregistered dataset (routing, evict).
	// Both are deliberate refusals, not malfunctions, so they are
	// excluded from the error counter — the registry-full signal in
	// particular is how operators size MaxDatasets, and it used to
	// drown inside the generic error count.
	registryConflicts int64
	datasetNotFound   int64

	batches    int64 // /batch requests answered
	batchItems int64 // items across all answered batches

	ring []time.Duration // query latencies, ring buffer
	next int             // next write position
	full bool
}

// latencyWindow is the number of recent /query latencies the ring
// keeps for the /stats percentiles.
const latencyWindow = 1024

// newServerStats sizes the latency ring to window (> 0) samples.
func newServerStats(window int) *serverStats {
	return &serverStats{ring: make([]time.Duration, window)}
}

// startRequest / endRequest bracket an in-flight /query.
func (s *serverStats) startRequest() {
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
}

func (s *serverStats) endRequest() {
	s.mu.Lock()
	s.inFlight--
	s.mu.Unlock()
}

// recordQuery counts one answered /query — hit or miss, latency, and
// the ring write — as a single atomic transition, which is what keeps
// the hits + misses == queries invariant visible to every scrape.
func (s *serverStats) recordQuery(hit bool, latency time.Duration) {
	s.mu.Lock()
	s.queries++
	if hit {
		s.cacheHits++
	} else {
		s.cacheMiss++
	}
	s.observeLocked(latency)
	s.mu.Unlock()
}

// addODEvals accounts engine work. It is called from the compute
// goroutine when an answer lands (even when the requesting handler
// already timed out, since the work was still done).
func (s *serverStats) addODEvals(n int64) {
	s.mu.Lock()
	s.odEvals += n
	s.mu.Unlock()
}

func (s *serverStats) recordScan() {
	s.mu.Lock()
	s.scans++
	s.mu.Unlock()
}

func (s *serverStats) recordError() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

// recordClientCancelled counts a request abandoned by its own client —
// deliberately separate from recordError (see the field comment).
func (s *serverStats) recordClientCancelled() {
	s.mu.Lock()
	s.clientCancelled++
	s.mu.Unlock()
}

// recordRegistryConflict counts one 409 registry-admission refusal.
func (s *serverStats) recordRegistryConflict() {
	s.mu.Lock()
	s.registryConflicts++
	s.mu.Unlock()
}

// recordDatasetNotFound counts one 404 for an unregistered dataset.
func (s *serverStats) recordDatasetNotFound() {
	s.mu.Lock()
	s.datasetNotFound++
	s.mu.Unlock()
}

// recordBatch counts one answered /batch with its item count and OD
// evaluations in a single transition.
func (s *serverStats) recordBatch(items int, odEvals int64) {
	s.mu.Lock()
	s.batches++
	s.batchItems += int64(items)
	s.odEvals += odEvals
	s.mu.Unlock()
}

// observeLocked records one query latency; the caller holds mu.
func (s *serverStats) observeLocked(d time.Duration) {
	s.ring[s.next] = d
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
}

// percentile reads the q-quantile (0 < q ≤ 1) from a sorted sample
// using the nearest-rank method — rank ⌈q·n⌉, the smallest value with
// at least q·n of the sample at or below it; 0 on an empty sample.
// (The previous rounding formula, int(q·n+0.5), dropped a rank
// whenever q·n had a fractional part below one half — e.g. the p50 of
// a 10-sample window read rank 5 where nearest-rank requires 5 only
// for exact halves and 6 for q=0.51 — understating tail latency.)
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// DatasetStats summarises one registry entry inside StatsSnapshot.
type DatasetStats struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	D       int    `json:"d"`
	Shards  int    `json:"shards"`
	Queries int64  `json:"queries"`
	// Live is the dataset's streaming-mutation state: epoch counter,
	// append/delete ledger and WAL occupancy.
	Live LiveStats `json:"live"`
	// Overload is the dataset's admission-guard state: breaker phase,
	// current adaptive concurrency limit, and the shed ledger.
	Overload OverloadStats `json:"overload"`
	// PerShard is the cumulative per-shard k-NN work (nil for an
	// unsharded dataset): one entry per shard.
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// LiveStats is one dataset's streaming-mutation section of /stats.
// Epoch counts view swaps (0 = never mutated); the WAL fields are 0
// until persistence engages (first mutation with -data-dir and -wal).
// Appends counts client append operations; AppendBatches counts the
// coalescer drains that applied them, so appends/append_batches is
// the observed group-commit amortization factor. WALSyncs is the
// log's cumulative fsync count (resets when compaction rotates the
// log, like WALRecords).
type LiveStats struct {
	Epoch         int64 `json:"epoch"`
	NextID        int64 `json:"next_id"`
	Appends       int64 `json:"appends"`
	AppendedRows  int64 `json:"appended_rows"`
	AppendBatches int64 `json:"append_batches"`
	Deletes       int64 `json:"deletes"`
	DeletedRows   int64 `json:"deleted_rows"`
	Compactions   int64 `json:"compactions"`
	WALBytes      int64 `json:"wal_bytes"`
	WALRecords    int64 `json:"wal_records"`
	WALSyncs      int64 `json:"wal_syncs"`
	// The retention section: sweep jobs completed, rows they expired,
	// and the currently effective policy (empty/zero = disabled).
	RetentionSweeps      int64  `json:"retention_sweeps"`
	RetentionExpiredRows int64  `json:"retention_expired_rows"`
	RetentionMaxAge      string `json:"retention_max_age,omitempty"`
	RetentionMaxRows     int    `json:"retention_max_rows,omitempty"`
}

// OverloadStats is one dataset's overload-guard section of /stats.
// The ledger obeys received == admitted + shed and shed ==
// shed_breaker_open + shed_capacity in every snapshot — the same
// single-critical-section discipline as hits + misses == queries.
type OverloadStats struct {
	// BreakerState is "closed", "open" or "half_open"; BreakerOpens
	// counts cumulative trips.
	BreakerState string `json:"breaker_state"`
	BreakerOpens int64  `json:"breaker_opens"`
	// ConcurrencyLimit is the current adaptive limit (AIMD-controlled,
	// between the configured min and max); InFlight is total admitted
	// requests currently computing across all classes.
	ConcurrencyLimit int `json:"concurrency_limit"`
	InFlight         int `json:"in_flight"`
	// P99Ms is the windowed interactive p99 the limiter steers by.
	P99Ms float64 `json:"latency_p99_ms"`
	// The admission ledger.
	Received        int64 `json:"received"`
	Admitted        int64 `json:"admitted"`
	Shed            int64 `json:"shed"`
	ShedBreakerOpen int64 `json:"shed_breaker_open"`
	ShedCapacity    int64 `json:"shed_capacity"`
}

// ShardStats is one shard's point count and cumulative search work.
type ShardStats struct {
	Points         int   `json:"points"`
	Queries        int64 `json:"queries"`
	PointsExamined int64 `json:"points_examined"`
	NodesVisited   int64 `json:"nodes_visited"`
}

// JobStats is the async job-subsystem section of StatsSnapshot — a
// rendering of jobs.Counters. Queued/Running are current occupancy;
// everything else is cumulative.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Abandoned int64 `json:"abandoned"`
}

// StatsSnapshot is the JSON body of GET /stats.
type StatsSnapshot struct {
	Queries           int64          `json:"queries"`
	Scans             int64          `json:"scans"`
	Errors            int64          `json:"errors"`
	ClientCancelled   int64          `json:"client_cancelled"`
	RegistryConflicts int64          `json:"registry_conflicts"`
	DatasetNotFound   int64          `json:"dataset_not_found"`
	CacheHits         int64          `json:"cache_hits"`
	CacheMisses       int64          `json:"cache_misses"`
	CacheEntries      int            `json:"cache_entries"`
	InFlight          int64          `json:"in_flight"`
	ODEvaluations     int64          `json:"od_evaluations"`
	Batches           int64          `json:"batches"`
	BatchItems        int64          `json:"batch_items"`
	Jobs              JobStats       `json:"jobs"`
	Datasets          []DatasetStats `json:"datasets"`
	LatencySample     int            `json:"latency_sample"`
	P50Ms             float64        `json:"latency_p50_ms"`
	P90Ms             float64        `json:"latency_p90_ms"`
	P99Ms             float64        `json:"latency_p99_ms"`
	UptimeSeconds     float64        `json:"uptime_seconds"`
}

// snapshot assembles the counters under one lock acquisition. Sorting
// the latency copy happens outside the critical section — the copy is
// private — so scrapes do not stall the serving path.
func (s *serverStats) snapshot(cacheEntries int, uptime time.Duration) StatsSnapshot {
	s.mu.Lock()
	n := s.next
	if s.full {
		n = len(s.ring)
	}
	lat := make([]time.Duration, n)
	copy(lat, s.ring[:n])
	snap := StatsSnapshot{
		Queries:           s.queries,
		Scans:             s.scans,
		Errors:            s.errors,
		ClientCancelled:   s.clientCancelled,
		RegistryConflicts: s.registryConflicts,
		DatasetNotFound:   s.datasetNotFound,
		CacheHits:         s.cacheHits,
		CacheMisses:       s.cacheMiss,
		CacheEntries:      cacheEntries,
		InFlight:          s.inFlight,
		ODEvaluations:     s.odEvals,
		Batches:           s.batches,
		BatchItems:        s.batchItems,
	}
	s.mu.Unlock()

	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	snap.LatencySample = len(lat)
	snap.P50Ms = ms(percentile(lat, 0.50))
	snap.P90Ms = ms(percentile(lat, 0.90))
	snap.P99Ms = ms(percentile(lat, 0.99))
	snap.UptimeSeconds = uptime.Seconds()
	return snap
}
