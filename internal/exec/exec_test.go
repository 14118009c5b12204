package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/engine"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/testutil"
)

// chainInstance synthesizes a small chain query A—B—…—n with the given
// cardinality per relation and selectivity per edge, returning instance,
// cards, and graph.
func chainInstance(t *testing.T, n int, card float64, sel float64) (*engine.Instance, []float64, *joingraph.Graph) {
	t.Helper()
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = card
	}
	g := joingraph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, sel); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := engine.Synthesize(cards, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inst, cards, g
}

func optimalPlan(t *testing.T, cards []float64, g *joingraph.Graph) *plan.Node {
	t.Helper()
	res, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

var allAlgorithms = []Algorithm{engine.HashJoinAlg, engine.SortMergeAlg, engine.NestedLoopsAlg}

// TestRunMatchesRowEngine is the in-package differential: on random queries
// and random plans, every vectorized algorithm must report exactly the row
// count the row engine reports.
func TestRunMatchesRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		q := testutil.RandomQuery(rng, 5)
		cards := make([]float64, len(q.Cards))
		for i := range cards {
			cards[i] = float64(rng.Intn(40)) // keep instances executable
		}
		inst, err := engine.SynthesizeRand(cards, q.Graph, rng)
		if err != nil {
			t.Fatal(err)
		}
		plans := []*plan.Node{optimalPlan(t, cards, q.Graph),
			baseline.RandomPlan(cards, q.Graph, cost.Naive{}, rng)}
		for pi, p := range plans {
			want, err := inst.Count(p, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("trial %d plan %d: row engine: %v", trial, pi, err)
			}
			for _, alg := range allAlgorithms {
				got, err := Count(inst, p, Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("trial %d plan %d %v: %v", trial, pi, alg, err)
				}
				if got != int64(want) {
					t.Fatalf("trial %d plan %d %v: vectorized %d rows, row engine %d",
						trial, pi, alg, got, want)
				}
			}
		}
	}
}

// TestBatchSizeInvariance: the batch size is an execution knob, never a
// semantic one.
func TestBatchSizeInvariance(t *testing.T) {
	inst, cards, g := chainInstance(t, 5, 200, 0.02)
	p := optimalPlan(t, cards, g)
	want, err := Count(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 3, 7, 64, 100000} {
		for _, alg := range allAlgorithms {
			got, err := Count(inst, p, Options{BatchSize: bs, Algorithm: alg})
			if err != nil {
				t.Fatalf("batch %d %v: %v", bs, alg, err)
			}
			if got != want {
				t.Fatalf("batch %d %v: got %d rows, want %d", bs, alg, got, want)
			}
		}
	}
}

// TestCartesianProduct executes a predicate-free plan (two disconnected
// relations) and expects the full cross product under every algorithm.
func TestCartesianProduct(t *testing.T) {
	cards := []float64{30, 40}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:  bitset.Of(0, 1),
		Card: 1200,
		Left: plan.Leaf(0, 30), Right: plan.Leaf(1, 40),
	}
	for _, alg := range allAlgorithms {
		got, err := Count(inst, p, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1200 {
			t.Fatalf("%v: Cartesian product produced %d rows, want 1200", alg, got)
		}
	}
}

// TestRowLimit: exceeding MaxRows must surface the engine's sentinel, with
// the same strictly-greater threshold.
func TestRowLimit(t *testing.T) {
	cards := []float64{30, 40}
	inst, err := engine.Synthesize(cards, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Node{
		Set:  bitset.Of(0, 1),
		Card: 1200,
		Left: plan.Leaf(0, 30), Right: plan.Leaf(1, 40),
	}
	if _, err := Count(inst, p, Options{MaxRows: 1199}); !errors.Is(err, engine.ErrRowLimit) {
		t.Fatalf("MaxRows 1199: got %v, want ErrRowLimit", err)
	}
	if got, err := Count(inst, p, Options{MaxRows: 1200}); err != nil || got != 1200 {
		t.Fatalf("MaxRows 1200: got %d, %v; want 1200, nil", got, err)
	}
}

// TestStats checks the instrumentation: join count, batch count, the
// intermediate-row sum excluding the final result, and the CollectOps
// breakdown.
func TestStats(t *testing.T) {
	inst, cards, g := chainInstance(t, 4, 100, 0.01)
	p := optimalPlan(t, cards, g)
	res, err := Run(inst, p, Options{CollectOps: true, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Joins != 3 {
		t.Fatalf("Joins = %d, want 3", res.Stats.Joins)
	}
	if res.Stats.Rows != res.Rows {
		t.Fatalf("Stats.Rows = %d, Result.Rows = %d", res.Stats.Rows, res.Rows)
	}
	if res.Stats.Batches == 0 {
		t.Fatal("Batches = 0, want > 0")
	}
	if res.Stats.IntermediateRows < 0 {
		t.Fatalf("IntermediateRows = %d, want >= 0", res.Stats.IntermediateRows)
	}
	// 4 scans + 3 joins.
	if len(res.Stats.Ops) != 7 {
		t.Fatalf("len(Ops) = %d, want 7", len(res.Stats.Ops))
	}
	scans := 0
	for _, op := range res.Stats.Ops {
		if op.Kind == "scan" {
			scans++
			if op.Rows != 100 {
				t.Fatalf("scan of %v produced %d rows, want 100", op.Set, op.Rows)
			}
		}
	}
	if scans != 4 {
		t.Fatalf("scans = %d, want 4", scans)
	}
}

// TestPlanAlgorithmAnnotations: UsePlanAlgorithms must honour per-node
// annotations just like the row engine does.
func TestPlanAlgorithmAnnotations(t *testing.T) {
	inst, cards, g := chainInstance(t, 4, 80, 0.02)
	p := optimalPlan(t, cards, g)
	p.Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			n.Algorithm = "sortmerge"
		}
	})
	want, err := inst.Count(p, engine.ExecOptions{UsePlanAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Count(inst, p, Options{UsePlanAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(want) {
		t.Fatalf("annotated plan: vectorized %d rows, row engine %d", got, want)
	}
}

// TestAdaptiveStaticEquivalence: with no re-optimizer, the adaptive driver's
// bottom-up schedule must produce exactly Run's result.
func TestAdaptiveStaticEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		q := testutil.RandomQuery(rng, 5)
		cards := make([]float64, len(q.Cards))
		for i := range cards {
			cards[i] = float64(rng.Intn(30))
		}
		inst, err := engine.SynthesizeRand(cards, q.Graph, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := optimalPlan(t, cards, q.Graph)
		want, err := Run(inst, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunAdaptive(inst, p, Options{}, AdaptiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows {
			t.Fatalf("trial %d: adaptive %d rows, static %d", trial, got.Rows, want.Rows)
		}
		if len(got.Events) != 0 {
			t.Fatalf("trial %d: %d events without a re-optimizer", trial, len(got.Events))
		}
	}
}

// skewedSetup builds the misestimation scenario: a 5-chain whose first edge
// the optimizer believes is vastly more selective than it really is — the
// lie makes joining (0,1) first look free, so the plan leads with it and
// execution observes a 10^5× blowup at the very first join. The returned
// instance holds the true data; the plan is optimized under the lie.
func skewedSetup(t *testing.T) (*engine.Instance, *plan.Node, []float64, *joingraph.Graph) {
	t.Helper()
	n := 5
	cards := []float64{2000, 2000, 600, 600, 600}
	const lied, actual = 1.0 / 4_000_000, 1.0 / 40
	mkGraph := func(firstSel float64) *joingraph.Graph {
		g := joingraph.New(n)
		sels := []float64{firstSel, 1.0 / 600, 1.0 / 600, 1.0 / 600}
		for i := 0; i+1 < n; i++ {
			if err := g.AddEdge(i, i+1, sels[i]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	truth, lie := mkGraph(actual), mkGraph(lied)
	inst, err := engine.Synthesize(cards, truth, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := optimalPlan(t, cards, lie) // planned under the misestimate
	return inst, p, cards, truth
}

// greedyReopt is the test-side ReoptFunc: plan the group query greedily.
func greedyReopt(t *testing.T, calls *int) ReoptFunc {
	return func(gq GroupQuery) (*plan.Node, error) {
		*calls++
		g := joingraph.New(len(gq.Groups))
		for _, e := range gq.Edges {
			if err := g.AddEdge(e.A, e.B, e.Selectivity); err != nil {
				return nil, err
			}
		}
		res, err := baseline.GreedyLeftDeep(gq.Cards, g, cost.Naive{})
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
}

// TestAdaptiveReopt injects skew, expects the adaptive driver to observe the
// first join's blowup, re-plan the remainder, produce the same final row
// count as the static plan, and shrink total intermediate rows.
func TestAdaptiveReopt(t *testing.T) {
	inst, p, _, _ := skewedSetup(t)
	static, err := Run(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	adaptive, err := RunAdaptive(inst, p, Options{}, AdaptiveOptions{Reoptimize: greedyReopt(t, &calls)})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("re-optimizer never called despite injected skew")
	}
	replanned := false
	for _, ev := range adaptive.Events {
		if ev.Replanned {
			replanned = true
			if ev.Deviation <= DefaultReoptRatio {
				t.Fatalf("replanned at deviation %v, below the %v trigger", ev.Deviation, DefaultReoptRatio)
			}
		}
	}
	if !replanned {
		t.Fatalf("no replanned event; events: %+v", adaptive.Events)
	}
	if adaptive.Rows != static.Rows {
		t.Fatalf("adaptive %d rows, static %d — replanning changed the result", adaptive.Rows, static.Rows)
	}
	if adaptive.Stats.IntermediateRows >= static.Stats.IntermediateRows {
		t.Fatalf("adaptive intermediate rows %d, static %d — replanning did not help",
			adaptive.Stats.IntermediateRows, static.Stats.IntermediateRows)
	}
	if adaptive.Plan.Set != p.Set {
		t.Fatalf("executed plan covers %v, want %v", adaptive.Plan.Set, p.Set)
	}
	if err := adaptive.Plan.Validate(); err != nil {
		t.Fatalf("spliced plan invalid: %v", err)
	}
}

// TestAdaptiveReoptErrorNonFatal: a failing re-optimizer must not abort
// execution.
func TestAdaptiveReoptErrorNonFatal(t *testing.T) {
	inst, p, _, _ := skewedSetup(t)
	static, err := Run(inst, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(GroupQuery) (*plan.Node, error) { return nil, errors.New("reopt backend down") }
	res, err := RunAdaptive(inst, p, Options{}, AdaptiveOptions{Reoptimize: boom})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != static.Rows {
		t.Fatalf("got %d rows, want %d", res.Rows, static.Rows)
	}
	found := false
	for _, ev := range res.Events {
		if !ev.Replanned && ev.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a failed reopt event, got %+v", res.Events)
	}
}

// TestNilAndInvalidInputs covers the error paths.
func TestNilAndInvalidInputs(t *testing.T) {
	inst, cards, g := chainInstance(t, 3, 10, 0.1)
	if _, err := Run(nil, optimalPlan(t, cards, g), Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := Run(inst, nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	// A plan referencing a relation the instance lacks.
	bad := plan.Leaf(7, 10)
	if _, err := Run(inst, bad, Options{}); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
}

// TestTableColumn: leaf tables expose the instance's columns zero-copy.
func TestTableColumn(t *testing.T) {
	inst, cards, g := chainInstance(t, 3, 10, 0.1)
	res, err := Run(inst, optimalPlan(t, cards, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Table.Column(ColID{Rel: 0, Name: "id"}); !ok {
		t.Fatal("result table lacks column {0, id}")
	}
	if _, ok := res.Table.Column(ColID{Rel: 9, Name: "id"}); ok {
		t.Fatal("result table reports a column that cannot exist")
	}
}

// TestOpBatchesSumToTotal: each operator records its own batch count, so
// under CollectOps the per-op counts add up to the run's total.
func TestOpBatchesSumToTotal(t *testing.T) {
	inst, cards, g := chainInstance(t, 5, 200, 0.02)
	p := optimalPlan(t, cards, g)
	for _, alg := range allAlgorithms {
		res, err := Run(inst, p, Options{Algorithm: alg, CollectOps: true, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, op := range res.Stats.Ops {
			if op.Kind == "scan" && op.Batches != 0 {
				t.Fatalf("%v: scan of %v reports %d batches", alg, op.Set, op.Batches)
			}
			sum += op.Batches
		}
		if sum != res.Stats.Batches || sum == 0 {
			t.Fatalf("%v: per-op batches sum to %d, Stats.Batches = %d", alg, sum, res.Stats.Batches)
		}
	}
}

// resultTuples reads a vectorized result back as full tuples through
// Table.Column over every (relation, column) of the instance, each tuple
// rendered as a string, and returns them sorted: the result's multiset.
func resultTuples(t *testing.T, inst *engine.Instance, tab *Table) []string {
	t.Helper()
	var cols [][]int64
	for rel, r := range inst.Relations {
		for _, name := range r.ColNames() {
			c, ok := tab.Column(ColID{Rel: rel, Name: name})
			if !ok {
				t.Fatalf("result lacks column {%d, %s}", rel, name)
			}
			if len(c) != tab.Rows() {
				t.Fatalf("column {%d, %s} has %d values for %d rows", rel, name, len(c), tab.Rows())
			}
			cols = append(cols, c)
		}
	}
	out := make([]string, tab.Rows())
	row := make([]int64, len(cols))
	for k := range out {
		for i, c := range cols {
			row[i] = c[k]
		}
		out[k] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return out
}

// batchTuples is resultTuples for the row engine's batch, in the same column
// order.
func batchTuples(t *testing.T, inst *engine.Instance, b *engine.Batch) []string {
	t.Helper()
	var idx []int
	for rel, r := range inst.Relations {
		for _, name := range r.ColNames() {
			i := b.Col(fmt.Sprintf("%d.%s", rel, name))
			if i < 0 {
				t.Fatalf("row engine result lacks column %d.%s", rel, name)
			}
			idx = append(idx, i)
		}
	}
	out := make([]string, b.Len())
	row := make([]int64, len(idx))
	for k, r := range b.Rows {
		for i, c := range idx {
			row[i] = r[c]
		}
		out[k] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return out
}

// TestRunTuplesMatchRowEngine checks late materialization on values, not
// just counts: on random tree and cyclic queries, every algorithm and the
// adaptive driver must yield the row engine's result as a multiset of full
// tuples, read back column by column through Table.Column.
func TestRunTuplesMatchRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		extra := 0
		if trial%2 == 1 {
			extra = 1 + rng.Intn(2) // cyclic
		}
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = float64(rng.Intn(13))
		}
		g := joingraph.New(n)
		for _, e := range joingraph.RandomConnectedEdgesRand(n, extra, rng) {
			if err := g.AddEdge(e[0], e[1], 1/float64(3+rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := engine.SynthesizeRand(cards, g, rng)
		if err != nil {
			t.Fatal(err)
		}
		plans := []*plan.Node{optimalPlan(t, cards, g), baseline.RandomPlan(cards, g, cost.Naive{}, rng)}
		for pi, p := range plans {
			b, err := inst.Execute(p, engine.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := batchTuples(t, inst, b)
			check := func(what string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("trial %d plan %d %s: %v", trial, pi, what, err)
				}
				if got := resultTuples(t, inst, res.Table); !slices.Equal(got, want) {
					t.Fatalf("trial %d plan %d %s: %d tuples differ from the row engine's %d",
						trial, pi, what, len(got), len(want))
				}
			}
			for _, alg := range allAlgorithms {
				res, err := Run(inst, p, Options{Algorithm: alg, BatchSize: 4})
				check(alg.String(), res, err)
			}
			calls := 0
			res, err := RunAdaptive(inst, p, Options{}, AdaptiveOptions{Ratio: 1.01, MinRows: 1, Reoptimize: greedyReopt(t, &calls)})
			check("adaptive", res, err)
		}
	}
}

// TestRunAllocs bounds exec.Run's allocations on a fixed n=6 tree query
// over fixed data. Late materialization keeps them to a table and a row-id
// slab per join plus the run's reused scratch, independent of row and column
// counts (the eager executor made 179 on this query).
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cards := []float64{3000, 800, 5000, 1200, 2500, 600}
	g := joingraph.New(len(cards))
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 3}, {2, 4}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1], 1/max(cards[e[0]], cards[e[1]])); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := engine.Synthesize(cards, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := optimalPlan(t, cards, g)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Run(inst, p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 36
	if allocs > limit {
		t.Errorf("exec.Run allocated %v times per run, want <= %v", allocs, limit)
	}
}
