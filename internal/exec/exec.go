// Package exec is the columnar execution runtime: the vectorized counterpart
// of internal/engine's row-at-a-time executor. It runs the same bushy plan
// trees over the same synthesized instances (engine.Instance stays the data
// layer) but materializes late: an intermediate result is one row-id vector
// per base relation, and a join reads only the key columns its own
// predicates need. Joins use a presized bucket-chained hash table probed in
// bounded batches (with a one-multiply kernel for single-key joins), filter
// residual predicates through selection vectors, and emit match-index
// vectors into scratch reused across the run — no per-row allocations, no
// string keys. Column values are gathered only when Table.Column asks.
//
// The package has two drivers. Run executes a plan statically. RunAdaptive
// (adaptive.go) executes bottom-up while comparing observed intermediate
// cardinalities against the plan's estimates; when an estimate is off by more
// than a configured ratio it re-optimizes the remaining work through a
// caller-supplied ReoptFunc and splices the new subplan in (plan.Splice).
//
// Row-count semantics are bit-equal to internal/engine under every algorithm
// — check.ExecutionAgree and FuzzExecVectorized enforce the equivalence, and
// TestRunTuplesMatchRowEngine checks the result tuples themselves.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plan"
)

// Algorithm selects the physical join operator; it is the engine's enum so
// the two executors share plan annotations and option plumbing.
type Algorithm = engine.JoinAlgorithm

// DefaultBatchSize bounds how many probe rows a join processes per batch when
// Options.BatchSize is zero.
const DefaultBatchSize = 1024

// defaultMaxRows mirrors engine.ExecOptions: the intermediate-result guard
// applied when Options.MaxRows is zero.
const defaultMaxRows = 10_000_000

// ColID names a column of an intermediate result: the base relation it came
// from plus the relation-local column name. Unlike the row engine's
// "<rel>.<name>" strings, resolving a ColID allocates nothing.
type ColID struct {
	Rel  int
	Name string
}

// Table is a late-materialized intermediate result: one row-id vector per
// base relation in its set, each indexing that relation's columns. A leaf
// table carries no vectors (the identity) and copies nothing; a join output
// carries one int32 vector per member relation. Column values are gathered
// only on demand, so a join moves row ids and its own key columns, never
// whole tuples.
type Table struct {
	rels []*engine.Relation
	set  bitset.Set
	// ids holds the row-id vectors back to back, rows entries per member of
	// set in ascending relation order; nil means a leaf scan, whose row ids
	// are 0..rows-1. Join outputs always carry a non-nil slab, even an
	// empty one.
	ids  []int32
	rows int
}

// Rows returns the tuple count.
func (t *Table) Rows() int { return t.rows }

// Column returns the values of the identified column and whether it exists.
// A leaf table returns the instance's own storage, a join output a freshly
// gathered copy; callers must not mutate either.
func (t *Table) Column(id ColID) ([]int64, bool) {
	if id.Rel < 0 || id.Rel >= len(t.rels) || !t.set.Has(id.Rel) {
		return nil, false
	}
	col, ok := t.rels[id.Rel].Cols[id.Name]
	if !ok {
		return nil, false
	}
	if t.ids == nil {
		return col, true
	}
	rid := t.rowIDs(id.Rel)
	out := make([]int64, len(rid))
	for k, r := range rid {
		out[k] = col[r]
	}
	return out, true
}

// rowIDs returns the row-id vector of member relation rel, or nil when the
// table is a leaf scan (identity).
func (t *Table) rowIDs(rel int) []int32 {
	if t.ids == nil {
		return nil
	}
	k := (t.set & (bitset.Single(rel) - 1)).Count()
	return t.ids[k*t.rows : (k+1)*t.rows]
}

// Options configures execution. The zero value matches the row engine's
// defaults: hash joins, plan annotations ignored, 10M-row guard.
type Options struct {
	// Algorithm is the default physical join operator. When UsePlanAlgorithms
	// is set and a node carries an Algorithm annotation, the annotation wins.
	Algorithm Algorithm
	// UsePlanAlgorithms honours per-node Algorithm annotations (§6.5).
	UsePlanAlgorithms bool
	// MaxRows aborts execution with engine.ErrRowLimit when an intermediate
	// result exceeds this many tuples (0 means 10 million).
	MaxRows int
	// BatchSize bounds the rows a join probes per batch (0 means
	// DefaultBatchSize).
	BatchSize int
	// CollectOps records a per-operator breakdown in Stats.Ops.
	CollectOps bool
}

func (o Options) maxRows() int {
	if o.MaxRows <= 0 {
		return defaultMaxRows
	}
	return o.MaxRows
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// OpStats is the per-operator entry of Stats.Ops.
type OpStats struct {
	// Kind is "scan", "hash", "sortmerge", or "nestedloops".
	Kind string `json:"kind"`
	// Set is the relation set the operator computed.
	Set bitset.Set `json:"set"`
	// Rows is the operator's output cardinality; Estimated is the plan's
	// estimate for the same set (0 for scans of estimate-free leaves).
	Rows      int64   `json:"rows"`
	Estimated float64 `json:"estimated"`
	// Batches counts probe batches (or run blocks); Nanos is wall time.
	Batches int64 `json:"batches"`
	Nanos   int64 `json:"nanos"`
}

// Stats aggregates one execution.
type Stats struct {
	// Rows is the final result cardinality.
	Rows int64 `json:"rows"`
	// Joins counts join operators executed; IntermediateRows sums their
	// output rows excluding the final result — the quantity adaptive
	// re-optimization tries to shrink.
	Joins            int   `json:"joins"`
	IntermediateRows int64 `json:"intermediate_rows"`
	// Batches counts probe batches across all operators; Nanos is total wall
	// time inside the executor.
	Batches int64 `json:"batches"`
	Nanos   int64 `json:"nanos"`
	// Ops is the per-operator breakdown, present under Options.CollectOps.
	Ops []OpStats `json:"ops,omitempty"`
}

// Result is one finished execution.
type Result struct {
	// Rows is the final cardinality; Table the late-materialized result.
	Rows  int64
	Table *Table
	// Stats instruments the run. Plan is the tree actually executed — it
	// differs from the input only when RunAdaptive replanned mid-query.
	Stats Stats
	Plan  *plan.Node
	// Events records adaptive re-optimization triggers (empty for Run).
	Events []ReoptEvent
}

// pred is one resolved equi-join predicate: the two key vectors to compare,
// aligned row for row with the join's left and right inputs, so join inner
// loops touch no maps and no row-id indirection.
type pred struct {
	l, r []int64
}

// edgePred is a graph edge with both base join columns resolved once per
// execution, so per-node predicate resolution is a scan over E edges with no
// map lookups or string formatting — the vectorized analogue of the row
// engine's predScratch.
type edgePred struct {
	a, b   int
	ca, cb []int64
}

// executor carries one execution's scratch, all reused across join nodes:
// resolved edges, the predicate slice, gathered key columns, the hash
// table's slot heads and chain links, the selection vector, sort
// permutations, and the match-index vectors.
type executor struct {
	inst    *engine.Instance
	opts    Options
	batch   int
	maxRows int
	edges   []edgePred
	leaves  []Table
	preds   []pred
	keys    [][]int64
	hbuf    []uint64
	heads   []int32
	next    []int32
	sel     []int32
	lperm   []int32
	rperm   []int32
	lidx    []int32
	ridx    []int32
	stats   Stats
}

func newExecutor(inst *engine.Instance, opts Options) (*executor, error) {
	if inst == nil {
		return nil, errors.New("exec: nil instance")
	}
	x := &executor{inst: inst, opts: opts, batch: opts.batchSize(), maxRows: opts.maxRows(),
		leaves: make([]Table, len(inst.Relations))}
	if g := inst.Graph; g != nil {
		rels := inst.Relations
		edges := g.Edges()
		x.edges = make([]edgePred, 0, len(edges))
		for _, e := range edges {
			if e.A >= len(rels) || e.B >= len(rels) {
				continue
			}
			col := engine.JoinColumn(e.A, e.B)
			ca, aok := rels[e.A].Cols[col]
			cb, bok := rels[e.B].Cols[col]
			if aok && bok {
				x.edges = append(x.edges, edgePred{a: e.A, b: e.B, ca: ca, cb: cb})
			}
		}
	}
	return x, nil
}

// Run executes a plan tree against the instance and returns the result.
// Execution is bottom-up and static; see RunAdaptive for the re-optimizing
// driver.
func Run(inst *engine.Instance, p *plan.Node, opts Options) (*Result, error) {
	x, err := newExecutor(inst, opts)
	if err != nil {
		return nil, err
	}
	if err := validatePlan(p); err != nil {
		return nil, err
	}
	faultinject.Inject(faultinject.ExecRun)
	start := time.Now()
	t, err := x.node(p)
	if err != nil {
		return nil, err
	}
	x.finish(t, start)
	return &Result{Rows: int64(t.rows), Table: t, Stats: x.stats, Plan: p}, nil
}

// Count is Run returning only the result cardinality.
func Count(inst *engine.Instance, p *plan.Node, opts Options) (int64, error) {
	r, err := Run(inst, p, opts)
	if err != nil {
		return 0, err
	}
	return r.Rows, nil
}

func validatePlan(p *plan.Node) error {
	if p == nil {
		return errors.New("exec: nil plan")
	}
	return p.Validate()
}

// finish closes the aggregate stats: total wall time, final cardinality, and
// the intermediate-row sum (joins counted their outputs; the root's rows are
// a result, not an intermediate).
func (x *executor) finish(root *Table, start time.Time) {
	x.stats.Nanos = time.Since(start).Nanoseconds()
	x.stats.Rows = int64(root.rows)
	if x.stats.Joins > 0 {
		x.stats.IntermediateRows -= int64(root.rows)
	}
}

// node executes the subtree rooted at p.
func (x *executor) node(p *plan.Node) (*Table, error) {
	if p.IsLeaf() {
		return x.scan(p)
	}
	left, err := x.node(p.Left)
	if err != nil {
		return nil, err
	}
	right, err := x.node(p.Right)
	if err != nil {
		return nil, err
	}
	return x.join(p, left, right)
}

// scan opens a leaf: a table over the relation's rows with no row-id
// vector, so nothing is copied.
func (x *executor) scan(p *plan.Node) (*Table, error) {
	if p.Rel < 0 || p.Rel >= len(x.inst.Relations) {
		return nil, fmt.Errorf("exec: plan references unknown relation %d", p.Rel)
	}
	start := time.Now()
	t := &x.leaves[p.Rel]
	*t = Table{rels: x.inst.Relations, set: bitset.Single(p.Rel), rows: x.inst.Relations[p.Rel].Rows()}
	x.record("scan", p, t, start, 0)
	return t, nil
}

// join executes one join node over its already-executed children.
func (x *executor) join(p *plan.Node, left, right *Table) (*Table, error) {
	start := time.Now()
	batches := x.stats.Batches
	preds := x.spanning(left, right)
	alg := x.opts.Algorithm
	if x.opts.UsePlanAlgorithms && p.Algorithm != "" {
		alg = engine.AlgorithmByName(p.Algorithm)
	}
	var (
		kind string
		err  error
	)
	switch {
	case len(preds) == 0 || alg == engine.NestedLoopsAlg:
		kind = "nestedloops"
		err = x.nestedLoops(left, right, preds)
	case alg == engine.SortMergeAlg:
		kind = "sortmerge"
		err = x.sortMerge(preds)
	default:
		kind = "hash"
		err = x.hashJoin(left, right, preds)
	}
	if err != nil {
		return nil, err
	}
	out := x.output(left, right)
	x.stats.Joins++
	x.stats.IntermediateRows += int64(out.rows)
	x.record(kind, p, out, start, x.stats.Batches-batches)
	return out, nil
}

// record appends one operator's entry under CollectOps; batches is the
// operator's own batch count, not the running total.
func (x *executor) record(kind string, p *plan.Node, t *Table, start time.Time, batches int64) {
	if !x.opts.CollectOps {
		return
	}
	x.stats.Ops = append(x.stats.Ops, OpStats{
		Kind:      kind,
		Set:       p.Set,
		Rows:      int64(t.rows),
		Estimated: p.Card,
		Batches:   batches,
		Nanos:     time.Since(start).Nanoseconds(),
	})
}

// spanning resolves the predicates crossing the (left, right) inputs into
// key-vector pairs, reusing the executor's scratch. One pass over the
// pre-resolved edge list; a leaf side uses the base column as is, a join
// side gathers the key through its row ids.
func (x *executor) spanning(left, right *Table) []pred {
	x.preds = x.preds[:0]
	for _, e := range x.edges {
		var lrel, rrel int
		var lcol, rcol []int64
		switch {
		case left.set.Has(e.a) && right.set.Has(e.b):
			lrel, lcol, rrel, rcol = e.a, e.ca, e.b, e.cb
		case left.set.Has(e.b) && right.set.Has(e.a):
			lrel, lcol, rrel, rcol = e.b, e.cb, e.a, e.ca
		default:
			continue
		}
		slot := 2 * len(x.preds)
		x.preds = append(x.preds, pred{
			l: x.key(left, lrel, lcol, slot),
			r: x.key(right, rrel, rcol, slot+1),
		})
	}
	return x.preds
}

// key returns base column col of member relation rel aligned with t's rows:
// the column itself for a leaf, else a gather through t's row ids into
// scratch buffer slot.
func (x *executor) key(t *Table, rel int, col []int64, slot int) []int64 {
	if t.ids == nil {
		return col
	}
	for len(x.keys) <= slot {
		x.keys = append(x.keys, nil)
	}
	rid := t.rowIDs(rel)
	buf := x.keys[slot]
	if cap(buf) < len(rid) {
		buf = make([]int64, len(rid))
	}
	buf = buf[:len(rid)]
	for k, r := range rid {
		buf[k] = col[r]
	}
	x.keys[slot] = buf
	return buf
}

// appendPair records one (left-row, right-row) match, enforcing the row
// limit with the engine's strictly-greater semantics.
func (x *executor) appendPair(l, r int32) error {
	if len(x.lidx) >= x.maxRows {
		return engine.ErrRowLimit
	}
	x.lidx = append(x.lidx, l)
	x.ridx = append(x.ridx, r)
	return nil
}

// output turns the accumulated match-index vectors into the join's result:
// one row-id vector per member relation, gathered from the input it came
// from, all in one slab. No column value is read.
func (x *executor) output(left, right *Table) *Table {
	n := len(x.lidx)
	set := left.set | right.set
	ids := make([]int32, n*set.Count())
	for k, s := 0, set; s != 0; k, s = k+1, s&(s-1) {
		rel := s.Min()
		dst := ids[k*n : (k+1)*n]
		if left.set.Has(rel) {
			gatherIDs(dst, left, rel, x.lidx)
		} else {
			gatherIDs(dst, right, rel, x.ridx)
		}
	}
	return &Table{rels: x.inst.Relations, set: set, ids: ids, rows: n}
}

// gatherIDs writes member rel's row id for each input row in idx.
func gatherIDs(dst []int32, t *Table, rel int, idx []int32) {
	if t.ids == nil {
		copy(dst, idx)
		return
	}
	src := t.rowIDs(rel)
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// hashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing: the
// top bits of key·hashMul pick the slot.
const hashMul = 0x9E3779B97F4A7C15

// sparseSlots caps the slot count hashTable grows to beyond its 2n floor.
const sparseSlots = 1 << 20

// hashTable readies the reused slot heads and chain links for n build rows:
// a power-of-two slot count, all empty, and the shift that maps a 64-bit
// hash onto it. The table gets at least 2n slots and, up to sparseSlots
// (4 MiB of heads), 8n: every chain entry a probe walks past costs a cache
// miss, and the sparser table all but removes them: on key joins of
// 2k–20k rows it took about a fifth off exec.Run. Heads and links hold
// row+1, so 0 ends a chain and emptying the table is one clear.
func (x *executor) hashTable(n int) (heads, next []int32, shift uint) {
	bits := uint(1)
	for 1<<bits < 2*n || (1<<bits < 8*n && 1<<bits < sparseSlots) {
		bits++
	}
	size := 1 << bits
	if cap(x.heads) < size {
		x.heads = make([]int32, size)
	}
	heads = x.heads[:size]
	clear(heads)
	if cap(x.next) < n {
		x.next = make([]int32, n)
	}
	return heads, x.next[:n], 64 - bits
}

// hashes computes one 64-bit multi-key hash per row of cols[lo:hi], column
// at a time, into the executor's reusable buffer.
func (x *executor) hashes(cols [][]int64, lo, hi int) []uint64 {
	n := hi - lo
	if cap(x.hbuf) < n {
		x.hbuf = make([]uint64, n)
	}
	h := x.hbuf[:n]
	clear(h)
	for _, c := range cols {
		for i, v := range c[lo:hi] {
			h[i] = (h[i] ^ uint64(v)) * hashMul
		}
	}
	return h
}

// hashJoin builds a bucket-chained hash table on the smaller input and
// probes the larger side in batches, verifying key equality on the raw key
// vectors (collision safe) and emitting match pairs. One predicate — every
// product-free join of a tree query — takes a kernel that hashes the key
// with one multiply and compares once per chain entry.
func (x *executor) hashJoin(left, right *Table, preds []pred) error {
	buildLeft := left.rows <= right.rows
	build, probe := left, right
	if !buildLeft {
		build, probe = right, left
	}
	heads, next, shift := x.hashTable(build.rows)
	// A key join emits about one match per probe row; reserving that much
	// up front spares the match vectors a dozen doublings.
	if cap(x.lidx) < probe.rows {
		x.lidx = make([]int32, 0, probe.rows)
	}
	if cap(x.ridx) < probe.rows {
		x.ridx = make([]int32, 0, probe.rows)
	}
	bo, po := x.lidx[:0], x.ridx[:0]
	if !buildLeft {
		bo, po = x.ridx[:0], x.lidx[:0]
	}
	if len(preds) == 1 {
		bk, pk := preds[0].l, preds[0].r
		if !buildLeft {
			bk, pk = pk, bk
		}
		for r, v := range bk[:build.rows] {
			s := uint64(v) * hashMul >> shift
			next[r] = heads[s]
			heads[s] = int32(r + 1)
		}
		for base := 0; base < probe.rows; base += x.batch {
			end := min(base+x.batch, probe.rows)
			x.stats.Batches++
			for r, v := range pk[base:end] {
				for i := heads[uint64(v)*hashMul>>shift]; i != 0; i = next[i-1] {
					if bk[i-1] != v {
						continue
					}
					if len(bo) >= x.maxRows {
						return engine.ErrRowLimit
					}
					bo = append(bo, i-1)
					po = append(po, int32(base+r))
				}
			}
		}
	} else {
		bcols := make([][]int64, len(preds))
		pcols := make([][]int64, len(preds))
		for i, p := range preds {
			bcols[i], pcols[i] = p.l, p.r
			if !buildLeft {
				bcols[i], pcols[i] = p.r, p.l
			}
		}
		for r, h := range x.hashes(bcols, 0, build.rows) {
			s := h >> shift
			next[r] = heads[s]
			heads[s] = int32(r + 1)
		}
		for base := 0; base < probe.rows; base += x.batch {
			end := min(base+x.batch, probe.rows)
			ph := x.hashes(pcols, base, end)
			x.stats.Batches++
			for r := base; r < end; r++ {
			chain:
				for i := heads[ph[r-base]>>shift]; i != 0; i = next[i-1] {
					for k := range bcols {
						if bcols[k][i-1] != pcols[k][r] {
							continue chain
						}
					}
					if len(bo) >= x.maxRows {
						return engine.ErrRowLimit
					}
					bo = append(bo, i-1)
					po = append(po, int32(r))
				}
			}
		}
	}
	if buildLeft {
		x.lidx, x.ridx = bo, po
	} else {
		x.lidx, x.ridx = po, bo
	}
	return nil
}

// filterSel compacts the selection vector to the right-side rows whose
// residual predicate keys equal the left row's values.
func (x *executor) filterSel(preds []pred, lrow int32) {
	for _, p := range preds {
		lv := p.l[lrow]
		keep := x.sel[:0]
		for _, rb := range x.sel {
			if p.r[rb] == lv {
				keep = append(keep, rb)
			}
		}
		x.sel = keep
	}
}

// nestedLoops joins by comparing every pair, batching the inner side: each
// batch builds a selection vector from the first predicate and compacts it
// through the rest, so residual filtering never materializes rejected rows.
// With no predicates it is the Cartesian product.
func (x *executor) nestedLoops(left, right *Table, preds []pred) error {
	x.lidx, x.ridx = x.lidx[:0], x.ridx[:0]
	for l := 0; l < left.rows; l++ {
		for base := 0; base < right.rows; base += x.batch {
			end := min(base+x.batch, right.rows)
			x.stats.Batches++
			if len(preds) == 0 {
				for r := base; r < end; r++ {
					if err := x.appendPair(int32(l), int32(r)); err != nil {
						return err
					}
				}
				continue
			}
			p0 := preds[0]
			lv := p0.l[l]
			x.sel = x.sel[:0]
			for r := base; r < end; r++ {
				if p0.r[r] == lv {
					x.sel = append(x.sel, int32(r))
				}
			}
			x.filterSel(preds[1:], int32(l))
			for _, r := range x.sel {
				if err := x.appendPair(int32(l), r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// argsort refills perm with the row indices of keys in ascending key order.
func argsort(perm []int32, keys []int64) []int32 {
	perm = perm[:0]
	for i := range keys {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return perm
}

// sortMerge sorts both inputs on the first predicate's key (via reused index
// permutations — the keys themselves never move) and merges equal-key runs;
// residual predicates filter each run block through the selection vector.
func (x *executor) sortMerge(preds []pred) error {
	p0 := preds[0]
	x.lperm = argsort(x.lperm, p0.l)
	x.rperm = argsort(x.rperm, p0.r)
	lp, rp := x.lperm, x.rperm
	x.lidx, x.ridx = x.lidx[:0], x.ridx[:0]
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		lv, rv := p0.l[lp[i]], p0.r[rp[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			i2 := i
			for i2 < len(lp) && p0.l[lp[i2]] == lv {
				i2++
			}
			j2 := j
			for j2 < len(rp) && p0.r[rp[j2]] == rv {
				j2++
			}
			x.stats.Batches++
			for a := i; a < i2; a++ {
				la := lp[a]
				x.sel = append(x.sel[:0], rp[j:j2]...)
				x.filterSel(preds[1:], la)
				for _, rb := range x.sel {
					if err := x.appendPair(la, rb); err != nil {
						return err
					}
				}
			}
			i, j = i2, j2
		}
	}
	return nil
}
