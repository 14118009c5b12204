package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"blitzsplit"
	"blitzsplit/internal/check"
	"blitzsplit/internal/server"
	"blitzsplit/internal/spec"
)

// expected is a request's answer computed by an independent reference.
type expected struct {
	cost, card float64
	rows       int64
	err        error
}

// checker holds the expected answers of every distinct request and compares
// served answers against them. References run after the timed phase, so
// computing them costs no measured time.
//
// Optimize answers must be exhaustive and undegraded, and their cost and
// cardinality must match, within check.Tol relative, a cache-disabled engine
// run with the same model and enumerator on the request's own relation
// numbering. Never bit-for-bit: the server optimizes the canonical
// relabeling, whose floating-point sums may round differently. Never by
// expression string: relabeling back can mirror commutative joins.
//
// Execute answers must report the row count of a reference run on a
// different plan and join algorithm (left-deep, sort-merge, cache-disabled
// engine, same relation order and seed): the row count does not depend on
// the plan.
type checker struct {
	exec bool
	ref  *blitzsplit.Engine
	want map[*item]*expected
	// fps records the fingerprint served for each optimize-hot shape: every
	// relabeling must carry the same one.
	fps map[int]uint64
}

func newChecker(w *workload) *checker {
	return &checker{
		exec: w.path == "/v1/execute",
		ref:  blitzsplit.New(blitzsplit.EngineOptions{DisableCache: true}),
		want: make(map[*item]*expected),
		fps:  make(map[int]uint64),
	}
}

// prepare computes the references of every item not seen before, on two
// workers.
func (c *checker) prepare(items []*item) {
	var todo []*item
	for _, it := range items {
		if _, ok := c.want[it]; !ok {
			c.want[it] = nil
			todo = append(todo, it)
		}
	}
	out := make([]expected, len(todo))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(todo); k += 2 {
				out[k] = c.reference(todo[k])
			}
		}(g)
	}
	wg.Wait()
	for k, it := range todo {
		c.want[it] = &out[k]
	}
}

func (c *checker) reference(it *item) expected {
	var req server.ExecuteRequest // an optimize body decodes into its embedded part
	if err := json.Unmarshal(it.body, &req); err != nil {
		return expected{err: err}
	}
	q, err := facadeQuery(req.File)
	if err != nil {
		return expected{err: err}
	}
	opts := []blitzsplit.Option{blitzsplit.WithEnumerator(blitzsplit.EnumeratorBlitz)}
	if req.Model != "" {
		opts = append(opts, blitzsplit.WithCostModel(req.Model))
	}
	if !c.exec {
		res, err := c.ref.Optimize(context.Background(), q, opts...)
		if err != nil {
			return expected{err: err}
		}
		return expected{cost: res.Cost, card: res.Cardinality}
	}
	db, err := q.Synthesize(req.Seed)
	if err != nil {
		return expected{err: err}
	}
	er, err := c.ref.OptimizeAndExecute(context.Background(), q, db,
		blitzsplit.ExecuteOptions{Algorithm: "sortmerge"}, append(opts, blitzsplit.WithLeftDeep())...)
	if err != nil {
		return expected{err: err}
	}
	return expected{rows: er.Rows}
}

// facadeQuery builds the public-API query of a spec in its own relation
// order.
func facadeQuery(f spec.File) (*blitzsplit.Query, error) {
	q := blitzsplit.NewQuery()
	for _, r := range f.Relations {
		if err := q.AddRelation(r.Name, r.Cardinality); err != nil {
			return nil, err
		}
	}
	for _, j := range f.Joins {
		if err := q.Join(j.A, j.B, j.Selectivity); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// corrupt perturbs the expected answer of it: the self-test that proves a
// wrong answer is caught.
func (c *checker) corrupt(it *item) {
	e := c.want[it]
	e.cost *= 1 + 1e-6
	e.rows++
}

// response checks one HTTP answer; prepare must have covered r.it.
func (c *checker) response(r response) error {
	if r.err != nil {
		return r.err
	}
	if c.exec {
		return c.executed(r.it, r.ans.rows, r.ans.mode, r.ans.degraded)
	}
	if r.it.shape >= 0 {
		if prev, ok := c.fps[r.it.shape]; ok && prev != r.ans.fp {
			return fmt.Errorf("shape %d: relabelings carry different fingerprints", r.it.shape)
		}
		c.fps[r.it.shape] = r.ans.fp
	}
	return c.optimized(r.it, r.ans.cost, r.ans.card, r.ans.mode, r.ans.degraded)
}

// optimized checks one optimize answer against its reference.
func (c *checker) optimized(it *item, cost, card float64, mode string, degraded bool) error {
	if mode != blitzsplit.ModeExhaustive || degraded {
		return fmt.Errorf("degraded answer: mode %q", mode)
	}
	e := c.want[it]
	if e.err != nil {
		return fmt.Errorf("reference failed: %w", e.err)
	}
	if !near(cost, e.cost) || !near(card, e.card) {
		return fmt.Errorf("cost %v card %v, reference cost %v card %v", cost, card, e.cost, e.card)
	}
	return nil
}

// executed checks one execute answer against its reference.
func (c *checker) executed(it *item, rows int64, mode string, degraded bool) error {
	if mode != blitzsplit.ModeExhaustive || degraded {
		return fmt.Errorf("degraded answer: mode %q", mode)
	}
	e := c.want[it]
	if e.err != nil {
		return fmt.Errorf("reference failed: %w", e.err)
	}
	if rows != e.rows {
		return fmt.Errorf("%d rows, reference %d", rows, e.rows)
	}
	return nil
}

// near reports a and b equal within check.Tol, relative.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= check.Tol*math.Max(math.Abs(a), math.Abs(b))
}

// verdict tallies a run's failures.
type verdict struct {
	failed int
	// notes keeps the first few failure messages for the report.
	notes []string
}

func (v *verdict) fail(err error) {
	v.failed++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, err.Error())
	}
}

// check checks every answer of a phase, warm-up included, reconciles the
// server's counters with the clients' view, and requires every DP table to
// be back in the arena. It returns which timed responses were correct and
// how many were 200s; prepare must have covered the phase's items.
func (c *checker) check(v *verdict, ph *phase) (correct []bool, ok int) {
	for _, r := range ph.primed {
		if err := c.response(r); err != nil {
			v.fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	correct = make([]bool, len(ph.rs))
	for k, r := range ph.rs {
		if r.status == http.StatusOK {
			ok++
		}
		if err := c.response(r); err != nil {
			v.fail(err)
			continue
		}
		correct[k] = true
	}
	reconcile(v, ph.vars, ph.fwd, ok)
	if ph.arenaLive != 0 {
		v.fail(fmt.Errorf("arena: %d DP tables still checked out after the run", ph.arenaLive))
	}
	return correct, ok
}

// reconcile checks the server's own counters against what the clients saw:
// every 200 a client received was counted once by the node that answered
// it, plus once more by the entry node for each forward it relayed; and
// every request served was either an optimization or a coalesced follower.
func reconcile(v *verdict, d serverVars, fwd clusterTotals, ok int) {
	if want := float64(ok) + fwd.forwarded; d.ok != want {
		v.fail(fmt.Errorf("server counted %v requests with status 200, clients saw %d plus %v forwards", d.ok, ok, fwd.forwarded))
	}
	if d.optimizations+d.coalesced != float64(ok) {
		v.fail(fmt.Errorf("server counted %v optimizations + %v coalesced, clients saw %d answers", d.optimizations, d.coalesced, ok))
	}
}
