package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"blitzsplit"
	"blitzsplit/internal/canon"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/exec"
	"blitzsplit/internal/plancache"
	"blitzsplit/internal/server"
)

// Span names. A request's root span has the layer spans of the server's
// path as children, in the order the server calls them. The probe spans
// (canon.relabel, core.fill) time a second, separate call of a step the
// engine performs internally, after the request's root span has closed, so
// they add nothing to the request's traced wall time.
const (
	spanRequest = iota
	spanDecode
	spanBuild
	spanCanon
	spanForward
	spanEngineHit
	spanEngineMiss
	spanSynth
	spanExec
	spanEncode
	spanRelabel
	spanFill
	numSpans
)

var spanNames = [numSpans]string{
	"request", "server.decode", "server.build", "canon.canonicalize", "cluster.forward",
	"engine.hit", "engine.miss", "exec.synth", "exec.run", "server.encode",
	"canon.relabel", "core.fill",
}

// span is one timed call; times are nanoseconds since the tracer's epoch.
type span struct {
	name       int
	req        int
	parent     int // index into the tracer's spans; -1 for a root
	start, end int64
}

// tracer keeps the spans of one replay pass in memory. A nil tracer records
// nothing, which is the untraced replay.
type tracer struct {
	epoch time.Time
	req   int
	spans []span
}

func (t *tracer) begin(name, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

func (t *tracer) rename(i, name int) {
	if t != nil {
		t.spans[i].name = name
	}
}

// exactCounts are the counts one replay pass produces. For a fixed seed they
// must repeat exactly: they are the claim-grade evidence that a change did
// (or did not) alter the work done.
type exactCounts struct {
	LoopIters, KpEvals, KppEvals, Subsets uint64
	CacheHits, CacheMisses, CacheInserts  uint64
	CacheEvictions                        uint64
	CacheEntries                          int
	CacheBytes                            uint64
	Forwarded                             int
	IntermediateRows, ProcessedRows       int64
}

// replay runs a workload's request sequence in-process against a fresh
// stack, calling each layer's public entry point in the order the server
// calls them.
type replay struct {
	w   *workload
	st  *stack
	chk *checker
	v   *verdict
	tr  *tracer
	// canon and model hold the current request's canonicalization and cost
	// model until its probes have run.
	canon  canon.Canonicalizer
	model  string
	ring   *cluster.Ring
	fwd    *cluster.Client
	arena  *core.Arena
	counts exactCounts
	// execNanos and opNanos collect exec.Run's own timers per request.
	execNanos int64
	opNanos   map[string][]float64
	// walls is each request's wall time, traced or not.
	walls []time.Duration
}

func newReplay(w *workload, chk *checker, v *verdict, traced bool) (*replay, error) {
	st, err := startStack(w.nodes)
	if err != nil {
		return nil, err
	}
	for _, r := range prime(st, w) {
		if err := chk.response(r); err != nil {
			v.fail(err)
		}
	}
	// Peer fills the warm-up's forwards started must land before the pass,
	// or they would race into its cache counts.
	st.settle()
	p := &replay{w: w, st: st, chk: chk, v: v, arena: core.NewArena(256 << 20), opNanos: map[string][]float64{}}
	if traced {
		p.tr = &tracer{epoch: time.Now()}
	}
	if w.nodes > 1 {
		peers := make([]cluster.Node, len(st.nodes))
		for i, nd := range st.nodes {
			peers[i] = cluster.Node{ID: clusterNodes[i], URL: nd.url}
		}
		cfg := pinnedConfig()
		p.ring = cluster.NewRing(peers, cfg.VirtualNodes)
		p.fwd = cluster.NewClient(clusterNodes[0], cfg.MaxTimeout)
	}
	return p, nil
}

// run replays requests [0, w.pass), recording the plan-cache deltas in
// p.counts. A traced replay also runs each answer's probes.
func (p *replay) run() {
	before := p.cacheStats()
	for i := 0; i < p.w.pass; i++ {
		it := p.w.at(i)
		if p.tr != nil {
			p.tr.req = i
		}
		start := time.Now()
		var res *blitzsplit.Result
		var err error
		if p.chk.exec {
			err = p.execute(it)
		} else {
			res, err = p.optimize(it)
		}
		p.walls = append(p.walls, time.Since(start))
		if err == nil && p.tr != nil && res != nil {
			err = p.probe(res)
		}
		if err != nil {
			p.v.fail(fmt.Errorf("replay request %d: %w", i, err))
		}
	}
	after := p.cacheStats()
	p.counts.CacheHits = after.Hits - before.Hits
	p.counts.CacheMisses = after.Misses - before.Misses
	p.counts.CacheInserts = after.Puts - before.Puts
	p.counts.CacheEvictions = after.Evictions - before.Evictions
	p.counts.CacheEntries = after.Entries
	p.counts.CacheBytes = after.Bytes
}

// cacheStats sums the plan-cache counters over the stack's nodes.
func (p *replay) cacheStats() (sum plancache.Stats) {
	for _, nd := range p.st.nodes {
		c := nd.srv.Engine().Stats().Cache
		sum.Hits += c.Hits
		sum.Misses += c.Misses
		sum.Puts += c.Puts
		sum.Evictions += c.Evictions
		sum.Bytes += c.Bytes
		sum.Entries += c.Entries
	}
	return sum
}

func (p *replay) close() { p.st.close() }

// serveOptions mirrors the option set the server runs every request under.
func serveOptions(model string) []blitzsplit.Option {
	cfg := pinnedConfig()
	opts := []blitzsplit.Option{
		blitzsplit.WithDeadlineLadder(),
		blitzsplit.WithMemoryBudget(cfg.MemBudget),
		blitzsplit.WithEnumerator(cfg.Enumerator),
		blitzsplit.WithTimeout(timeoutMS * time.Millisecond),
	}
	if model != "" {
		opts = append(opts, blitzsplit.WithCostModel(model))
	}
	return opts
}

// optimize replays one /v1/optimize request. It returns the engine's
// result, or nil when the request was forwarded to its owner.
func (p *replay) optimize(it *item) (*blitzsplit.Result, error) {
	tr := p.tr
	root := tr.begin(spanRequest, -1)
	s := tr.begin(spanDecode, root)
	var req server.OptimizeRequest
	err := json.Unmarshal(it.body, &req)
	if err == nil {
		err = req.File.Validate()
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p.model = req.Model
	s = tr.begin(spanBuild, root)
	cq, _, err := req.File.Query()
	var q *blitzsplit.Query
	if err == nil {
		q, err = facadeQuery(req.File)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanCanon, root)
	err = p.canon.Canonicalize(cq, canon.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	nd := p.st.nodes[it.node]
	if p.ring != nil {
		if owner := p.ring.Owner(p.canon.Fingerprint()); owner.ID != clusterNodes[it.node] {
			s = tr.begin(spanForward, root)
			status, fp, body, err := p.forward(owner, it.body)
			tr.end(s)
			tr.end(root)
			if err != nil {
				return nil, err
			}
			r := response{it: it, status: status}
			r.ans, r.err = decodeAnswer(false, status, body, fp)
			p.counts.Forwarded++
			var or server.OptimizeResponse
			if json.Unmarshal(body, &or) == nil && !or.Cached {
				p.countWork(or.Counters)
			}
			return nil, p.chk.response(r)
		}
	}
	s = tr.begin(spanEngineHit, root)
	res, err := nd.srv.Engine().Optimize(context.Background(), q, serveOptions(req.Model)...)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	if !res.Cached {
		tr.rename(s, spanEngineMiss)
	}
	s = tr.begin(spanEncode, root)
	_, err = json.Marshal(server.OptimizeResponse{
		Expression: res.Expression(), Cost: res.Cost, Cardinality: res.Cardinality,
		Mode: res.Mode, Degraded: res.Degraded, Cached: res.Cached, Counters: res.Counters,
		Fingerprint: hex.EncodeToString(p.canon.Fingerprint()),
	})
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if !res.Cached {
		p.countWork(res.Counters)
	}
	return res, p.chk.optimized(it, res.Cost, res.Cardinality, res.Mode, res.Degraded)
}

// probe times, outside the request, the engine-internal steps of an answer
// served locally: relabeling a plan of its size, and on a miss the DP fill
// of the canonical query alone. It relies on p.canon still holding the
// request's canonicalization.
func (p *replay) probe(res *blitzsplit.Result) error {
	s := p.tr.begin(spanRelabel, -1)
	canon.RelabelPlan(res.Plan, p.canon.ToOrig())
	p.tr.end(s)
	if res.Cached {
		return nil
	}
	return p.fill(p.model)
}

// countWork adds the DP work of one answer that was not served from a cache.
func (p *replay) countWork(c core.Counters) {
	p.counts.LoopIters += c.LoopIters
	p.counts.KpEvals += c.KpEvals
	p.counts.KppEvals += c.KppEvals
	p.counts.Subsets += c.SubsetsVisited
}

// fill re-runs the DP on the canonical query the engine optimized on its
// miss, timing core.Optimize alone.
func (p *replay) fill(model string) error {
	if model == "" {
		model = "naive"
	}
	m, err := cost.ByName(model)
	if err != nil {
		return err
	}
	q := p.canon.Canonical().Query()
	s := p.tr.begin(spanFill, -1)
	_, err = core.Optimize(q, core.Options{Model: m, Enumerator: core.EnumeratorBlitz, Arena: p.arena, DiscardTable: true})
	p.tr.end(s)
	return err
}

// forward relays a request body to its owner the way the entry node does.
func (p *replay) forward(owner cluster.Node, body []byte) (status int, fp string, relay []byte, err error) {
	resp, err := p.fwd.Forward(context.Background(), owner, "/v1/optimize", "application/json", body)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	relay, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(server.HeaderFingerprint), relay, err
}

func (p *replay) execute(it *item) error {
	tr := p.tr
	root := tr.begin(spanRequest, -1)
	s := tr.begin(spanDecode, root)
	var req server.ExecuteRequest
	err := json.Unmarshal(it.body, &req)
	if err == nil {
		err = req.File.Validate()
	}
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spanBuild, root)
	q, err := facadeQuery(req.File)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spanSynth, root)
	db, err := q.Synthesize(req.Seed)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spanEngineHit, root)
	res, err := p.st.nodes[0].srv.Engine().Optimize(context.Background(), q, serveOptions(req.Model)...)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	if !res.Cached {
		tr.rename(s, spanEngineMiss)
	}
	s = tr.begin(spanExec, root)
	xr, err := exec.Run(db, res.Plan, exec.Options{CollectOps: true})
	tr.end(s)
	if err != nil {
		tr.end(root)
		return err
	}
	s = tr.begin(spanEncode, root)
	_, err = json.Marshal(server.ExecuteResponse{
		Rows: xr.Rows, Expression: res.Expression(), Cost: res.Cost, Cardinality: res.Cardinality,
		Mode: res.Mode, Degraded: res.Degraded, Cached: res.Cached, Exec: xr.Stats,
	})
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}
	p.counts.IntermediateRows += xr.Stats.IntermediateRows
	p.execNanos += xr.Stats.Nanos
	perKind := map[string]int64{}
	for _, op := range xr.Stats.Ops {
		p.counts.ProcessedRows += op.Rows
		perKind[op.Kind] += op.Nanos
	}
	for kind, ns := range perKind {
		p.opNanos[kind] = append(p.opNanos[kind], float64(ns)/1e6)
	}
	return p.chk.executed(it, xr.Rows, res.Mode, res.Degraded)
}

// selfTimes folds the pass's spans into per-name self-time samples in
// nanoseconds: a span's duration minus the time its children cover. It also
// returns each request's covered time: the summed self time of its root's
// children.
func (t *tracer) selfTimes(into map[int][]float64) (covered []float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		into[s.name] = append(into[s.name], float64(s.end-s.start-child[i]))
		if s.name == spanRequest {
			covered = append(covered, float64(child[i]))
		}
	}
	return covered
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"name": spanNames[s.name], "req": s.req, "parent": s.parent,
			"start_ns": s.start, "end_ns": s.end,
		}); err != nil {
			return err
		}
	}
	return nil
}
