package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run builds its stack from scratch at least minSetups times, and more
// while setupBudget lasts (at most maxSetups); setup_s is the median, and the
// last stack serves the timed phase. Cheap set-ups thus get enough samples
// for a steady median.
const (
	minSetups   = 7
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// endToEnd measures the workload over HTTP with tracing off.
func endToEnd(w *workload, o options) (*report, error) {
	var st *stack
	var primed []response
	var setupS []float64
	for begin := time.Now(); len(setupS) < minSetups || len(setupS) < maxSetups && time.Since(begin) < setupBudget; {
		if st != nil {
			st.close()
		}
		// A server starts on a fresh heap: collect the previous stack's
		// garbage outside the timed set-up.
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = startStack(w.nodes); err != nil {
			return nil, err
		}
		primed = prime(st, w)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	w.pregenerate(int(float64(w.rate) * o.seconds))
	ph, err := runPhase(st, w, primed, seconds(o.seconds))
	if err != nil {
		return nil, err
	}
	rs, elapsed := ph.rs, ph.elapsed

	rep := &report{attempted: len(rs)}
	chk := newChecker(w)
	chk.prepare(itemsOf(primed, rs))
	if o.corrupt {
		chk.corrupt(rs[0].it)
	}
	correct, ok := chk.check(&rep.v, ph)

	// Each metric is the median over one-second windows of the timed phase,
	// so a burst of interference from outside the benchmark moves a few
	// windows and not the reported value.
	win := windows(rs, correct, elapsed)
	var rates, p50s, p90s []float64
	for _, w := range win {
		rates = append(rates, float64(w.correct))
		p50s = append(p50s, quantile(w.lats, 0.5))
		p90s = append(p90s, quantile(w.lats, 0.9))
	}
	rep.metrics = []metric{
		timeMetric("throughput_rps", "1/s", quantile(rates, 0.5), rates),
		timeMetric("latency_p50_ms", "ms", quantile(p50s, 0.5), p50s),
		timeMetric("latency_p90_ms", "ms", quantile(p90s, 0.5), p90s),
		timeMetric("setup_s", "s", quantile(setupS, 0.5), setupS),
	}
	sorted := sortedCopy(latencies(rs))
	rep.diag = append(rep.diag,
		fmt.Sprintf("whole phase: requests=%d correct=%d status_200=%d elapsed_s=%.4f windows=%d throughput_rps=%.6g latency_p50_ms=%.6g latency_p90_ms=%.6g",
			len(rs), countTrue(correct), ok, elapsed.Seconds(), len(win), float64(countTrue(correct))/elapsed.Seconds(),
			sortedQuantile(sorted, 0.5), sortedQuantile(sorted, 0.9)),
		fmt.Sprintf("diagnostic client.latency_p99_ms=%.6g samples=%d (not gated)", sortedQuantile(sorted, 0.99), len(sorted)))
	return rep, nil
}

// window is one second of the timed phase: the latencies of the requests
// that completed in it, and how many of those were answered correctly.
type window struct {
	lats    []float64
	correct int
}

// windows splits the timed phase into whole one-second windows by
// completion time; the partial last second is dropped.
func windows(rs []response, correct []bool, elapsed time.Duration) []window {
	if len(rs) == 0 {
		return nil
	}
	start := rs[0].end.Add(-rs[0].lat)
	for _, r := range rs {
		if s := r.end.Add(-r.lat); s.Before(start) {
			start = s
		}
	}
	win := make([]window, max(int(elapsed/time.Second), 1))
	for k, r := range rs {
		i := int(r.end.Sub(start) / time.Second)
		if i >= len(win) {
			continue
		}
		win[i].lats = append(win[i].lats, ms(r.lat))
		if correct[k] {
			win[i].correct++
		}
	}
	return win
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// traced produces the per-layer metrics: a short untraced HTTP phase for
// the client's p50 and the server-side counters, then in-process replay
// passes of the first w.pass requests, alternating untraced and traced, on
// a fresh stack each.
func traced(w *workload, o options) (*report, error) {
	const httpShare = 0.4
	rep := &report{}
	chk := newChecker(w)

	st, err := startStack(w.nodes)
	if err != nil {
		return nil, err
	}
	primed := prime(st, w)
	w.pregenerate(max(w.pass, int(float64(w.rate)*httpShare*o.seconds)))
	ph, err := runPhase(st, w, primed, seconds(httpShare*o.seconds))
	if err != nil {
		return nil, err
	}
	rs, elapsed, d, fwd := ph.rs, ph.elapsed, ph.vars, ph.fwd
	passItems := make([]*item, w.pass)
	for i := range passItems {
		passItems[i] = w.at(i)
	}
	chk.prepare(append(itemsOf(primed, rs), passItems...))
	chk.check(&rep.v, ph)
	httpP50 := quantile(latencies(rs), 0.5)
	rep.attempted = len(rs)

	// Replay passes until the rest of the budget is spent, at least one of
	// each kind.
	self := map[int][]float64{}
	opMS := map[string][]float64{}
	var covered []float64
	var first *replay
	var tracedWall, untracedWall time.Duration
	var execNanos, processed int64
	deadline := time.Now().Add(seconds((1 - httpShare) * o.seconds))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, on := range []bool{false, true} {
			p, err := newReplay(w, chk, &rep.v, on)
			if err != nil {
				return nil, err
			}
			p.run()
			p.close()
			rep.attempted += w.pass
			var wall time.Duration
			for _, x := range p.walls {
				wall += x
			}
			if !on {
				untracedWall += wall
				continue
			}
			tracedWall += wall
			covered = append(covered, p.tr.selfTimes(self)...)
			for kind, v := range p.opNanos {
				opMS[kind] = append(opMS[kind], v...)
			}
			execNanos += p.execNanos
			processed += p.counts.ProcessedRows
			if first == nil {
				first = p
			} else {
				p.tr.spans = nil
			}
		}
	}
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, first.tr); err != nil {
			return nil, err
		}
	}

	for _, l := range layerMetrics {
		xs := self[l.span]
		scale := 1e3
		if l.unit == "ms" {
			scale = 1e6
		}
		for i := range xs {
			xs[i] /= scale
		}
		rep.metrics = append(rep.metrics,
			timeMetric(l.name+"_"+l.unit, l.unit, quantile(xs, 0.5), xs),
			timeMetric(l.name+"_p90_"+l.unit, l.unit, quantile(xs, 0.9), xs))
	}
	for _, kind := range []string{"scan", "hash"} {
		rep.metrics = append(rep.metrics, timeMetric("exec.op."+kind+"_ms", "ms", quantile(opMS[kind], 0.5), opMS[kind]))
	}
	c, m0, m1 := first.counts, ph.mem[0], ph.mem[1]
	hitRatio := 0.0
	if c.CacheHits+c.CacheMisses > 0 {
		hitRatio = float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses)
	}
	rowsPerS := 0.0
	if execNanos > 0 {
		rowsPerS = float64(processed) / (float64(execNanos) / 1e9)
	}
	served := d.optimizations + d.coalesced
	coalescedRatio := 0.0
	if served > 0 {
		coalescedRatio = d.coalesced / served
	}
	unaccounted := 0.0
	if httpP50 > 0 {
		unaccounted = 1 - quantile(covered, 0.5)/1e6/httpP50
	}
	rep.metrics = append(rep.metrics,
		countMetric("plancache.hit_ratio", "ratio", hitRatio),
		countMetric("plancache.misses", "count", float64(c.CacheMisses)),
		countMetric("plancache.inserts", "count", float64(c.CacheInserts)),
		countMetric("plancache.evictions", "count", float64(c.CacheEvictions)),
		countMetric("plancache.entries", "count", float64(c.CacheEntries)),
		countMetric("plancache.bytes", "bytes", float64(c.CacheBytes)),
		countMetric("core.loop_iters", "count", float64(c.LoopIters)),
		countMetric("core.kappa1_evals", "count", float64(c.KpEvals)),
		countMetric("core.kappa2_evals", "count", float64(c.KppEvals)),
		countMetric("core.subsets", "count", float64(c.Subsets)),
		countMetric("exec.intermediate_rows", "rows", float64(c.IntermediateRows)),
		countMetric("exec.rows_processed_per_s", "rows/s", rowsPerS),
		countMetric("cluster.forwarded", "count", float64(c.Forwarded)),
		countMetric("cluster.forwarded_ratio", "ratio", fwd.forwarded/float64(max(len(rs), 1))),
		countMetric("cluster.fill_fetched", "count", fwd.fillFetched),
		countMetric("cluster.forward_errors", "count", fwd.forwardErrors),
		countMetric("server.coalesced_ratio", "ratio", coalescedRatio),
		countMetric("server.shed_total", "count", d.shed),
		countMetric("server.degraded_total", "count", d.degraded),
		countMetric("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6),
		countMetric("runtime.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/float64(max(len(rs), 1))),
		countMetric("runtime.heap_inuse_mb", "MiB", float64(m1.HeapInuse)/(1<<20)),
		countMetric("arena.live", "count", float64(ph.arenaLive)),
		countMetric("trace.overhead_ratio", "ratio", tracedWall.Seconds()/untracedWall.Seconds()),
		countMetric("trace.unaccounted_share", "ratio", unaccounted),
	)
	rep.diag = append(rep.diag,
		fmt.Sprintf("exact %+v", c),
		fmt.Sprintf("http phase elapsed_s=%.4f requests=%d client_p50_ms=%.6g", elapsed.Seconds(), len(rs), httpP50),
		fmt.Sprintf("replay passes=%d requests_per_pass=%d traced_wall_s=%.4f untraced_wall_s=%.4f",
			len(self[spanRequest])/max(w.pass, 1), w.pass, tracedWall.Seconds(), untracedWall.Seconds()))
	glue := self[spanRequest]
	rep.diag = append(rep.diag, fmt.Sprintf("self request (glue between layer calls) median_us=%.6g p90_us=%.6g samples=%d",
		quantile(glue, 0.5)/1e3, quantile(glue, 0.9)/1e3, len(glue)))
	return rep, nil
}

// layerMetrics maps span names to per-layer metric names; each reports the
// median and p90 self time.
var layerMetrics = []struct {
	span       int
	name, unit string
}{
	{spanDecode, "server.decode", "us"},
	{spanBuild, "server.build", "us"},
	{spanCanon, "canon.canonicalize", "us"},
	{spanEngineHit, "engine.hit", "us"},
	{spanEngineMiss, "engine.miss", "ms"},
	{spanRelabel, "canon.relabel", "us"},
	{spanEncode, "server.encode", "us"},
	{spanFill, "core.fill", "ms"},
	{spanSynth, "exec.synth", "ms"},
	{spanExec, "exec.run", "ms"},
	{spanForward, "cluster.forward", "us"},
}

func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase is one timed HTTP phase: the warm-up and timed responses, and the
// server-side counters' deltas across the timed loop.
type phase struct {
	primed, rs []response
	elapsed    time.Duration
	vars       serverVars
	fwd        clusterTotals
	// mem is read before and after the timed loop.
	mem [2]runtime.MemStats
	// arenaLive counts DP tables still checked out once the load settled.
	arenaLive int64
}

// runPhase drives the primed stack for d with the closed-loop clients,
// reads the server's counters around the load, and closes the stack: the
// check needs no server, and closing it first frees its caches.
func runPhase(st *stack, w *workload, primed []response, d time.Duration) (*phase, error) {
	defer st.close()
	ph := &phase{primed: primed}
	before, fwdBefore, err := st.counters()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem[0])
	ph.rs, ph.elapsed = closedLoop(st, w, d)
	runtime.ReadMemStats(&ph.mem[1])
	st.settle()
	after, fwdAfter, err := st.counters()
	if err != nil {
		return nil, err
	}
	ph.vars, ph.fwd = after.sub(before), fwdAfter.sub(fwdBefore)
	for _, nd := range st.nodes {
		ph.arenaLive += nd.srv.Engine().Stats().Arena.Live
	}
	return ph, nil
}

// counters reads the server-side counters the checker reconciles.
func (st *stack) counters() (serverVars, clusterTotals, error) {
	v, err := st.vars()
	if err != nil {
		return v, clusterTotals{}, err
	}
	c, err := st.clusterStatus()
	return v, c, err
}

func itemsOf(groups ...[]response) []*item {
	var out []*item
	for _, g := range groups {
		for _, r := range g {
			out = append(out, r.it)
		}
	}
	return out
}

// latencies returns each response's latency in milliseconds.
func latencies(rs []response) []float64 {
	out := make([]float64, len(rs))
	for k, r := range rs {
		out[k] = ms(r.lat)
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
