package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vector"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// Traced-pass limits: the pass replays the workload single-threaded
// for at most traceMaxRequests HTTP requests or the run's window.
const (
	traceMaxRequests = 2000
	setupRepeats     = 3   // cheap set-up layers are timed this often (median)
	readsPerWrite    = 1   // live_ingest: reader queries per write
	overheadRequests = 200 // interleaved tagged/untagged requests for trace.overhead_frac
)

// tracedResult is one workload's traced pass: the per-layer metrics
// (every workload reports the same set, 0 for a layer that does no work
// in it) and the per-request components the layer budget is built from.
type tracedResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Components are the medians of the primary request's per-request
	// decomposition, in ms, in budget order.
	Components []budgetRow `json:"components"`
	Requests   int         `json:"requests"`
}

type budgetRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
}

// tracePass holds one traced pass's state.
type tracePass struct {
	ctx  context.Context
	w    *workload
	in   *inputs
	t    *tracer
	hc   *http.Client
	base string
	f    *failures

	cur   *core.Miner   // the miner the server serves at this point
	qeval *od.Evaluator // cur's evaluator for QueryWith replays
	ts    *timedSearcher
	teval *od.Evaluator // over ts: the instrumented replay
	guard float64       // admit+release µs, the guard's share of a computed request
	req   int64

	// Per primary request, µs.
	transport, handler, serverSelf, coreOp []float64
	// Budget components per primary request, µs (budgetLayers order).
	budget [numBudgetLayers][]float64
	// Per computed query (or batch item).
	searchSelf                        []float64
	queries, answers, cachedAnswers   int
	evaluated, impliedUp, impliedDown float64
	latticeTotal, knnCalls, odEvals   float64
	sharedHits, sharedLookups         float64
	// live_ingest's mutation layers.
	deleteMs, xtreeAppendMs, walAppendUs, walCommitUs []float64
	walRows, walBytes                                 float64
	walLog                                            *wal.Log
	nextID                                            int64
	engine                                            *shard.Engine
	tree                                              *xtree.Tree
}

// The layer budget's rows: what one primary request's roundtrip is
// made of, outermost first.
const (
	bTransport = iota
	bServerSelf
	bGuard
	bSearchSelf
	bKNN
	bMutation
	bWAL
	numBudgetLayers
)

var budgetLayers = [numBudgetLayers]string{"transport", "server.self", "overload.guard", "core.search_self", "knn", "core.mutation", "wal"}

// runTraced replays w's request sequence against an in-process server
// behind a timing middleware and times the calls into every layer from
// outside: set-up layers once (or setupRepeats times), then each
// request's transport, handler, core operation and — through an
// instrumented index of the benchmark's own — the lattice search and
// its k-NN calls.
func runTraced(ctx context.Context, w *workload, in *inputs, seed int64, budgetTime time.Duration, workDir, spansPath string) (*tracedResult, *failures, error) {
	f := &failures{}
	dir, err := os.MkdirTemp(workDir, w.name+"-traced-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	csv := filepath.Join(dir, "data.csv")
	if err := dataio.SaveFile(csv, in.ds); err != nil {
		return nil, nil, err
	}
	t := newTracer()
	p := &tracePass{ctx: ctx, w: w, in: in, t: t, f: f}
	metrics := map[string]float64{}

	// ---- set-up layers ----
	var ds *vector.Dataset
	if metrics["dataio.load_ms"], err = medianMs(setupRepeats, func() (err error) {
		ds, err = dataio.LoadFile(csv)
		return err
	}); err != nil {
		return nil, nil, err
	}
	// The full-space pass gets an index of its own, built first: the
	// last index built is the instrumented one, whose work counters
	// (and, sharded, per-shard counters) must cover the replay alone.
	setupSearcher, err := p.buildIndex(ds)
	if err != nil {
		return nil, nil, err
	}
	var searcher knn.Searcher
	if metrics["xtree.build_ms"], err = medianMs(setupRepeats, func() (err error) {
		searcher, err = p.buildIndex(ds)
		return err
	}); err != nil {
		return nil, nil, err
	}
	ev, err := od.NewEvaluator(ds, setupSearcher, vector.L2, odK, od.NormNone)
	if err != nil {
		return nil, nil, err
	}
	metrics["od.full_space_ods_ms"] = timeMs(func() { ev.FullSpaceODs() })
	m, err := core.NewMiner(ds, w.minerConfig(ds.N()))
	if err != nil {
		return nil, nil, err
	}
	metrics["core.preprocess_ms"] = timeMs(func() { err = m.Preprocess() })
	if err != nil {
		return nil, nil, err
	}
	p.ts = &timedSearcher{inner: searcher, t: t}
	if err := p.setMiner(m); err != nil {
		return nil, nil, err
	}
	if metrics["core.learn_ms"], err = learn(ev, m); err != nil {
		return nil, nil, err
	}

	// ---- the in-process server ----
	opts := server.Options{DataDir: filepath.Join(dir, "data"), WAL: true}
	if err := os.Mkdir(opts.DataDir, 0o755); err != nil {
		return nil, nil, err
	}
	srv, err := server.New(m, opts)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: t.middleware(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		_ = hs.Close()
		<-served
		_ = srv.Close(context.Background())
	}()
	p.hc = newHTTPClient(1)
	defer p.hc.CloseIdleConnections()
	p.base = "http://" + ln.Addr().String()

	pri := overload.Interactive
	if w.kind == kindBatch {
		pri = overload.Batch
	}
	p.guard = guardAdmitReleaseNs(pri) / 1e3

	// ---- the request sequence ----
	if w.kind == kindLive {
		if err := p.openWAL(dir); err != nil {
			return nil, nil, err
		}
		defer p.walLog.Close()
	}
	if w.kind == kindHot {
		// The LRU holds the working set before the first timed request,
		// as in the closed-loop run.
		for _, idx := range in.hot {
			if _, err := p.plain(queryRequest(idx)); err != nil {
				return nil, nil, err
			}
		}
	}
	overhead, err := p.overhead(overheadSequence(w, in, seed))
	if err != nil {
		return nil, nil, err
	}
	var nextQuery func(i int) request
	switch w.kind {
	case kindHot:
		z := zipfStream(in, seed, 0)
		nextQuery = func(int) request { return queryRequest(z()) }
	case kindCold:
		nextQuery = func(i int) request { return queryRequest(in.perm[i%len(in.perm)]) }
	}
	lw := &liveWriter{in: in, n: in.ds.N()}
	deadline := time.Now().Add(budgetTime)
	requests := 0
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline) && requests < traceMaxRequests; i++ {
		switch w.kind {
		case kindHot, kindCold:
			err = p.query(nextQuery(i), true)
			requests++
		case kindBatch:
			err = p.batch(in.batchRequest(i))
			requests++
		case kindLive:
			err = p.liveWrite(lw)
			for j := 0; err == nil && j < readsPerWrite; j++ {
				err = p.query(queryRequest(in.perm[(i*readsPerWrite+j)%len(in.perm)]), false)
			}
			requests += 1 + readsPerWrite
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}

	// ---- per-layer metrics ----
	q := float64(max(p.queries, 1))
	st := p.ts.total()
	calls := float64(max(st.Queries, 1))
	for name, v := range map[string]float64{
		"transport.us_p50":               p50(p.transport),
		"server.handle_us_p50":           p50(p.handler),
		"server.handle_us_p90":           pAt(p.handler, 0.9),
		"server.self_us_p50":             p50(p.serverSelf),
		"server.cache_hit_ratio":         float64(p.cachedAnswers) / float64(max(p.answers, 1)),
		"overload.admit_release_ns_p50":  p.guard * 1e3,
		"core.op_us_p50":                 p50(p.coreOp),
		"core.op_us_p90":                 pAt(p.coreOp, 0.9),
		"core.search_self_us_p50":        p50(p.searchSelf),
		"core.delete_ms_p50":             p50(p.deleteMs),
		"lattice.evaluated_per_query":    p.evaluated / q,
		"lattice.implied_up_per_query":   p.impliedUp / q,
		"lattice.implied_down_per_query": p.impliedDown / q,
		"lattice.pruned_frac":            (p.impliedUp + p.impliedDown) / max(p.latticeTotal, 1),
		"od.evals_per_query":             p.odEvals / q,
		"od.shared_hit_ratio":            p.sharedHits / max(p.sharedLookups, 1),
		"knn.calls_per_query":            p.knnCalls / q,
		"knn.call_us_p50":                p50(p.ts.durations),
		"knn.points_examined_per_call":   float64(st.PointsExamined) / calls,
		"knn.nodes_visited_per_call":     float64(st.NodesVisited) / calls,
		"shard.imbalance":                p.imbalance(),
		"xtree.append_ms":                p50(p.xtreeAppendMs),
		"wal.append_us_p50":              p50(p.walAppendUs),
		"wal.commit_us_p50":              p50(p.walCommitUs),
		"wal.bytes_per_row":              p.walBytes / max(p.walRows, 1),
		"trace.overhead_frac":            overhead,
	} {
		metrics[name] = v
	}
	res := &tracedResult{Metrics: metrics, Requests: requests}
	for l, name := range budgetLayers {
		res.Components = append(res.Components, budgetRow{name, p50(p.budget[l]) / 1e3})
	}
	if spansPath != "" {
		if err := t.writeJSONL(spansPath); err != nil {
			return nil, nil, err
		}
	}
	return res, f, nil
}

// buildIndex builds the workload's k-NN index the way hosserve does:
// a sharded engine under -shards, otherwise one X-tree.
func (p *tracePass) buildIndex(ds *vector.Dataset) (knn.Searcher, error) {
	if p.w.shards > 0 {
		e, err := shard.NewEngine(ds, shard.Config{Shards: p.w.shards, Metric: vector.L2})
		if err != nil {
			return nil, err
		}
		p.engine = e
		return e.NewSearcher()
	}
	t, err := xtree.Build(ds, vector.L2, xtree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p.tree = t
	return xtree.NewSearcher(t), nil
}

// setMiner points the replays at m (a new epoch after a mutation).
func (p *tracePass) setMiner(m *core.Miner) error {
	qeval, err := m.NewWorkerEvaluator()
	if err != nil {
		return err
	}
	teval, err := od.NewEvaluator(m.Dataset(), p.ts, vector.L2, odK, od.NormNone)
	if err != nil {
		return err
	}
	p.cur, p.qeval, p.teval = m, qeval, teval
	return nil
}

// learn replays m's learning phase from outside on ev: as many
// uniform-prior searches as the workload's -samples, from a seeded
// sample of rows, timed as one. It returns 0 without -samples.
func learn(ev *od.Evaluator, m *core.Miner) (float64, error) {
	n := m.Config().SampleSize
	if n == 0 {
		return 0, nil
	}
	d := m.Dataset().Dim()
	rng := rand.New(rand.NewSource(minerSeed))
	sample := rng.Perm(m.Dataset().N())[:n]
	var err error
	ms := timeMs(func() {
		for _, idx := range sample {
			if _, err = core.Search(ev.NewQueryForPoint(idx), d, m.Threshold(), core.UniformPriors(d), core.PolicyTSF, rng); err != nil {
				return
			}
		}
	})
	return ms, err
}

// plain sends an untagged request and returns its roundtrip in µs.
func (p *tracePass) plain(r request) (float64, error) {
	s := time.Now()
	status, body, err := send(p.ctx, p.hc, p.base, r, nil)
	d := float64(time.Since(s)) / 1e3
	if !p.f.record(r, status, body, err) && p.ctx.Err() == nil {
		return 0, fmt.Errorf("traced pass: %s", p.f.first[len(p.f.first)-1])
	}
	return d, p.ctx.Err()
}

// overhead sends reqs alternately tagged and untagged, with no replay
// in between, and returns how much slower the tagged roundtrip p50 is
// (the tracing overhead, as a share of the untagged p50).
func (p *tracePass) overhead(reqs []request) (float64, error) {
	var plain, tagged []float64
	for i, r := range reqs {
		if i%2 == 1 {
			d, err := p.plain(r)
			if err != nil {
				return 0, err
			}
			plain = append(plain, d)
			continue
		}
		_, rt, _, err := p.tagged(r)
		if err != nil {
			return 0, err
		}
		tagged = append(tagged, float64(rt.dur())/1e3)
	}
	return p50(tagged)/p50(plain) - 1, nil
}

// overheadSequence is the overhead phase's requests, taken from keys
// the main sequence reaches last (if at all), so the phase warms no
// cache entry a later traced request would hit. live_ingest measures
// it on reads, which leave the dataset as it is.
func overheadSequence(w *workload, in *inputs, seed int64) []request {
	var reqs []request
	switch w.kind {
	case kindHot:
		z := zipfStream(in, seed, 1)
		for range overheadRequests {
			reqs = append(reqs, queryRequest(z()))
		}
	case kindBatch:
		nb := len(in.bodies)
		for i := range overheadRequests / 4 {
			reqs = append(reqs, in.batchRequest(nb-1-i))
		}
	default:
		n := len(in.perm)
		for i := range min(overheadRequests, n/2) {
			reqs = append(reqs, queryRequest(in.perm[n-1-i]))
		}
	}
	return reqs
}

// tagged sends a request under a roundtrip span and returns the
// answer, the roundtrip and the handler span.
func (p *tracePass) tagged(r request) ([]byte, span, span, error) {
	p.req++
	rt := span{ID: p.t.newID(), Req: p.req, Name: "transport.roundtrip", Start: p.t.now()}
	status, body, err := send(p.ctx, p.hc, p.base, r, tagHeader(p.req, rt.ID))
	rt.End = p.t.now()
	if !p.f.record(r, status, body, err) {
		if p.ctx.Err() != nil {
			return nil, rt, span{}, p.ctx.Err()
		}
		return nil, rt, span{}, fmt.Errorf("traced pass: %s", p.f.first[len(p.f.first)-1])
	}
	var h span
	select {
	case h = <-p.t.handled:
	case <-time.After(10 * time.Second):
		return nil, rt, span{}, fmt.Errorf("traced pass: no handler span for request %d", p.req)
	}
	p.t.add(rt)
	return body, rt, h, nil
}

// primary records a primary request's roundtrip decomposition. parts
// are the core and WAL work done inside the handler in µs, keyed by
// budget layer, and guard its admission cost; the server's self time is
// the handler span minus parts.
func (p *tracePass) primary(rt, h span, guard float64, parts map[int]float64) {
	handler := float64(h.dur()) / 1e3
	self := handler
	for _, v := range parts {
		self -= v
	}
	transport := float64(selfTime(rt, []span{h})) / 1e3
	p.transport = append(p.transport, transport)
	p.handler = append(p.handler, handler)
	p.serverSelf = append(p.serverSelf, self)
	p.budget[bTransport] = append(p.budget[bTransport], transport)
	p.budget[bServerSelf] = append(p.budget[bServerSelf], self-guard)
	p.budget[bGuard] = append(p.budget[bGuard], guard)
	for l := bSearchSelf; l < numBudgetLayers; l++ {
		p.budget[l] = append(p.budget[l], parts[l])
	}
}

// coreSpan times fn as a core-layer span of the current request.
func (p *tracePass) coreSpan(name string, fn func() error) (float64, error) {
	s := p.t.now()
	err := fn()
	sp := p.t.add(span{Req: p.req, Name: name, Start: s, End: p.t.now()})
	return float64(sp.dur()) / 1e3, err
}

// search replays one query through the instrumented index and returns
// the search's self time and its k-NN time in µs.
func (p *tracePass) search(point []float64, exclude int) (float64, float64, error) {
	q := p.teval.NewQuery(point, exclude)
	evals := p.teval.Evaluations()
	p.ts.calls = p.ts.calls[:0]
	s := p.t.now()
	res, err := core.Search(q, p.cur.Dataset().Dim(), p.cur.Threshold(), p.cur.Priors(), core.PolicyTSF, nil)
	sp := span{Req: p.req, Name: "core.search", Start: s, End: p.t.now()}
	if err != nil {
		return 0, 0, err
	}
	self := selfTime(sp, p.ts.calls)
	sp.KNNCalls, sp.KNNNs = int64(len(p.ts.calls)), sp.dur()-self
	p.t.add(sp)
	c := res.Counters
	p.queries++
	p.evaluated += float64(c.Evaluations)
	p.impliedUp += float64(c.ImpliedUp)
	p.impliedDown += float64(c.ImpliedDown)
	p.latticeTotal += float64(c.Total)
	p.knnCalls += float64(len(p.ts.calls))
	p.odEvals += float64(p.teval.Evaluations() - evals)
	p.searchSelf = append(p.searchSelf, float64(self)/1e3)
	return float64(self) / 1e3, float64(sp.KNNNs) / 1e3, nil
}

// split apportions a request's core time between the search's self time
// and its k-NN calls in the proportion the instrumented replay measured
// (the replay's clocks inflate both sides alike).
func split(coreUs, selfUs, knnUs float64) map[int]float64 {
	share := 0.0
	if selfUs+knnUs > 0 {
		share = knnUs / (selfUs + knnUs)
	}
	return map[int]float64{bSearchSelf: coreUs * (1 - share), bKNN: coreUs * share}
}

// queryAnswer is the decoded part of a /query answer.
type queryAnswer struct {
	answer
	Cached bool `json:"cached"`
}

// query runs one traced /query and checks it against QueryWith on the
// same input. A computed answer's core work is timed and replayed
// through the instrumented search; an LRU hit did no core work, so its
// check is not timed. primary marks the workload's primary operation.
func (p *tracePass) query(r request, primary bool) error {
	body, rt, h, err := p.tagged(r)
	if err != nil {
		return err
	}
	var got queryAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("traced pass: decoding /query answer: %w", err)
	}
	point := p.cur.Dataset().Point(r.index)
	var res *core.QueryResult
	replay := func() (err error) {
		res, err = p.cur.QueryWith(p.qeval, point, r.index)
		return err
	}
	coreUs := 0.0
	if got.Cached {
		err = replay()
	} else {
		coreUs, err = p.coreSpan("core.query", replay)
	}
	if err != nil {
		return err
	}
	if d := diff(got.answer, answerOf(res), got.Threshold); d != "" {
		p.f.fail(fmt.Sprintf("traced pass: query %d: %s", r.index, d))
	}
	p.answers++
	if got.Cached {
		p.cachedAnswers++
		if primary {
			p.primary(rt, h, 0, nil)
		}
		return nil
	}
	self, knnUs, err := p.search(point, r.index)
	if err != nil {
		return err
	}
	if primary {
		p.coreOp = append(p.coreOp, coreUs)
		p.primary(rt, h, p.guard, split(coreUs, self, knnUs))
	}
	return nil
}

// batch runs one traced /batch and replays it with QueryBatch and item
// by item through the instrumented search.
func (p *tracePass) batch(r request) error {
	body, rt, h, err := p.tagged(r)
	if err != nil {
		return err
	}
	var got struct {
		Threshold float64       `json:"threshold"`
		Results   []queryAnswer `json:"results"`
		ODHits    float64       `json:"od_cache_hits"`
		ODMisses  float64       `json:"od_cache_misses"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("traced pass: decoding /batch answer: %w", err)
	}
	points := p.in.batchItems(r.batch)
	queries := make([]core.BatchQuery, len(points))
	for i, pt := range points {
		queries[i] = core.BatchPoint(pt)
	}
	var res *core.BatchResult
	coreUs, err := p.coreSpan("core.batch", func() (err error) {
		res, err = p.cur.QueryBatch(p.ctx, queries, core.BatchOptions{Workers: runtime.GOMAXPROCS(0)})
		return err
	})
	if err != nil {
		return err
	}
	if len(got.Results) != len(points) {
		return fmt.Errorf("traced pass: %d batch results for %d items", len(got.Results), len(points))
	}
	var self, knnUs float64
	computed := false
	for i, it := range res.Items {
		if it.Err != nil {
			return it.Err
		}
		if d := diff(got.Results[i].answer, answerOf(it.Result), got.Threshold); d != "" {
			p.f.fail(fmt.Sprintf("traced pass: batch %d item %d: %s", r.batch, i, d))
		}
		p.answers++
		if got.Results[i].Cached {
			p.cachedAnswers++
			continue
		}
		computed = true
		s, k, err := p.search(points[i], -1)
		if err != nil {
			return err
		}
		self += s
		knnUs += k
	}
	p.sharedHits += got.ODHits
	p.sharedLookups += got.ODHits + got.ODMisses
	if !computed {
		p.primary(rt, h, 0, nil)
		return nil
	}
	p.coreOp = append(p.coreOp, coreUs)
	p.primary(rt, h, p.guard, split(coreUs, self, knnUs))
	return nil
}

// openWAL opens the benchmark's own log beside the server's, so the
// WAL layer is timed on exactly the records the server journals.
func (p *tracePass) openWAL(dir string) error {
	n := p.cur.Dataset().N()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	lg, err := wal.Create(filepath.Join(dir, "bench.wal"), wal.Header{Dim: p.w.d, NextID: int64(n), BaseIDs: ids}, wal.SyncPolicy{Mode: wal.SyncBatch})
	p.walLog, p.nextID = lg, int64(n)
	return err
}

// journal times one WAL batch frame and its group commit, returning
// their sum in µs.
func (p *tracePass) journal(rec wal.Record, rows int) (float64, error) {
	before := p.walLog.Size()
	s := time.Now()
	if err := p.walLog.AppendBatch(time.Now().UnixNano(), []wal.Record{rec}); err != nil {
		return 0, err
	}
	mid := time.Now()
	if err := p.walLog.Commit(); err != nil {
		return 0, err
	}
	end := time.Now()
	p.walAppendUs = append(p.walAppendUs, float64(mid.Sub(s))/1e3)
	p.walCommitUs = append(p.walCommitUs, float64(end.Sub(mid))/1e3)
	if rows > 0 {
		p.walRows += float64(rows)
		p.walBytes += float64(p.walLog.Size() - before)
	}
	return float64(end.Sub(s)) / 1e3, nil
}

// liveWrite sends the writer's next write and replays it. The replay
// keeps its own miner chain and index in step with the server, so every
// later answer can be compared exactly.
func (p *tracePass) liveWrite(lw *liveWriter) error {
	r := lw.next()
	if r.kind == opAppend {
		return p.liveAppend(r, p.in.appendBatch(lw.appends-1))
	}
	return p.liveDelete(r, lw.n)
}

// liveAppend sends one append and replays it: the core mutation, the
// index append inside it and the WAL frame.
func (p *tracePass) liveAppend(r request, rows [][]float64) error {
	defer func() { p.nextID += int64(len(rows)) }()
	body, rt, h, err := p.tagged(r)
	if err != nil {
		return err
	}
	var nm *core.Miner
	coreUs, err := p.coreSpan("core.append", func() (err error) {
		nm, err = p.cur.WithAppendedBatch(rows)
		return err
	})
	if err != nil {
		return err
	}
	if err := checkN(body, nm.Dataset().N()); err != nil {
		p.f.fail("traced pass: append: " + err.Error())
	}
	walUs, err := p.journal(wal.Record{Type: wal.RecordAppend, FirstID: p.nextID, Rows: rows}, len(rows))
	if err != nil {
		return err
	}
	p.coreOp = append(p.coreOp, coreUs)
	p.primary(rt, h, 0, map[int]float64{bMutation: coreUs, bWAL: walUs})
	var tree *xtree.Tree
	ms := timeMs(func() { tree, err = p.tree.Append(nm.Dataset()) })
	if err != nil {
		return err
	}
	p.xtreeAppendMs = append(p.xtreeAppendMs, ms)
	p.tree = tree
	p.ts.swap(xtree.NewSearcher(tree))
	return p.setMiner(nm)
}

// liveDelete sends one keep_last=n delete and replays it.
func (p *tracePass) liveDelete(r request, n int) error {
	body, _, _, err := p.tagged(r)
	if err != nil {
		return err
	}
	total := p.cur.Dataset().N()
	keep := make([]int, n)
	for j := range keep {
		keep[j] = total - n + j
	}
	var nm *core.Miner
	coreUs, err := p.coreSpan("core.delete", func() (err error) {
		nm, err = p.cur.WithoutRows(keep)
		return err
	})
	if err != nil {
		return err
	}
	if err := checkN(body, nm.Dataset().N()); err != nil {
		p.f.fail("traced pass: delete: " + err.Error())
	}
	p.deleteMs = append(p.deleteMs, coreUs/1e3)
	from, to := p.nextID-int64(total), p.nextID-int64(n)
	if _, err := p.journal(wal.Record{Type: wal.RecordDelete, FromID: from, ToID: to}, 0); err != nil {
		return err
	}
	if p.tree, err = xtree.Build(nm.Dataset(), vector.L2, xtree.DefaultConfig()); err != nil {
		return err
	}
	p.ts.swap(xtree.NewSearcher(p.tree))
	return p.setMiner(nm)
}

// checkN verifies a mutation answer's dataset size.
func checkN(body []byte, want int) error {
	var got struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.N != want {
		return fmt.Errorf("n = %d, want %d", got.N, want)
	}
	return nil
}

// imbalance is the sharded index's max/mean points examined per
// shard (1 for a single index).
func (p *tracePass) imbalance() float64 {
	if p.w.shards == 0 || p.engine == nil {
		return 1
	}
	var sum, hi float64
	st := p.engine.ShardStats()
	for _, s := range st {
		v := float64(s.PointsExamined)
		sum += v
		hi = max(hi, v)
	}
	if sum == 0 {
		return 1
	}
	return hi / (sum / float64(len(st)))
}

// guardAdmitReleaseNs times Guard.Admit+Release pairs from two
// goroutines (the benchmark's client count) on a guard configured like
// the server's defaults, returning the median ns per pair.
func guardAdmitReleaseNs(pri overload.Priority) float64 {
	procs := runtime.GOMAXPROCS(0)
	caps := [3]int{4 * procs, 2, 1}
	g := overload.NewGuard(overload.Config{ClassCaps: caps, MaxLimit: caps[0] + caps[1] + caps[2]})
	const workers, rounds, per = 2, 400, 64
	samples := make([][]float64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := range workers {
		go func() {
			defer wg.Done()
			for range rounds {
				s := time.Now()
				for range per {
					pm, rej := g.Admit(context.Background(), pri, pri == overload.Interactive)
					if rej == nil {
						pm.Release(overload.Success, 0)
					}
				}
				samples[i] = append(samples[i], float64(time.Since(s))/per)
			}
		}()
	}
	wg.Wait()
	return median(append(samples[0], samples[1]...))
}

// timeMs runs fn once and returns its wall time in ms.
func timeMs(fn func()) float64 {
	s := time.Now()
	fn()
	return float64(time.Since(s)) / float64(time.Millisecond)
}

// medianMs runs fn n times and returns the median wall time in ms; the
// first error stops it.
func medianMs(n int, fn func() error) (float64, error) {
	var ts []float64
	for range n {
		var err error
		ts = append(ts, timeMs(func() { err = fn() }))
		if err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}
