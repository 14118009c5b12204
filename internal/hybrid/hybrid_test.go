package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/baseline"
	"blitzsplit/internal/bitset"
	"blitzsplit/internal/core"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/plan"
)

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

func chainQuery(n int, mean float64) ([]float64, *joingraph.Graph) {
	cards := joingraph.CardinalityLadder(n, mean, 0.5)
	return cards, joingraph.Build(joingraph.AppendixChainEdges(n), cards)
}

func TestValidation(t *testing.T) {
	if _, err := Greedy(nil, nil, cost.Naive{}); err == nil {
		t.Error("empty query accepted by Greedy")
	}
	if _, err := IDP([]float64{1, 2}, joingraph.New(3), cost.Naive{}, IDPOptions{}); err == nil {
		t.Error("mismatched graph accepted by IDP")
	}
}

func TestGreedyProducesValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		cards, g := chainQuery(maxInt(n, 2), 100)
		res, err := Greedy(cards, g, cost.NewDiskNestedLoops())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Plan.Set != bitset.Full(len(cards)) {
			t.Fatalf("trial %d: plan covers %v", trial, res.Plan.Set)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestGreedyNeverBeatsExact: greedy is a heuristic; it can only be ≥ the
// exhaustive optimum, and its plan's recomputed cost must match its reported
// cost.
func TestGreedyNeverBeatsExact(t *testing.T) {
	for _, n := range []int{5, 8, 11} {
		cards, g := chainQuery(n, 464)
		m := cost.NewDiskNestedLoops()
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Greedy(cards, g, m)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Cost < exact.Cost*(1-1e-9) {
			t.Errorf("n=%d: greedy %v beats exact %v", n, greedy.Cost, exact.Cost)
		}
		cp := greedy.Plan.Clone()
		cp.RecomputeCards(g, cards)
		if got := cp.RecomputeCost(m); relDiff(got, greedy.Cost) > 1e-9 {
			t.Errorf("n=%d: greedy reported %v, recomputed %v", n, greedy.Cost, got)
		}
	}
}

// TestIDPWithFullBlockIsExact: K ≥ n degenerates to exact DP — the cost must
// equal blitzsplit's.
func TestIDPWithFullBlockIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		cards := make([]float64, n)
		for i := range cards {
			cards[i] = math.Floor(1 + rng.Float64()*300)
		}
		g := joingraph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					g.MustAddEdge(i, j, 0.01+0.99*rng.Float64())
				}
			}
		}
		m := cost.SortMerge{}
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		idp, err := IDP(cards, g, m, IDPOptions{K: n})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(idp.Cost, exact.Cost) > 1e-9 {
			t.Errorf("trial %d: IDP(K=n) %v ≠ exact %v", trial, idp.Cost, exact.Cost)
		}
		if idp.DPRounds != 1 {
			t.Errorf("trial %d: DPRounds = %d", trial, idp.DPRounds)
		}
		if err := idp.Plan.Validate(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestIDPQualityBetweenGreedyAndExact: small-block IDP must be ≥ exact and
// its plan must be valid; on chains it should usually match or beat greedy.
func TestIDPQualityBounds(t *testing.T) {
	for _, n := range []int{10, 13} {
		cards, g := chainQuery(n, 464)
		m := cost.NewDiskNestedLoops()
		exact, err := core.Optimize(core.Query{Cards: cards, Graph: g}, core.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{3, 5, 8} {
			idp, err := IDP(cards, g, m, IDPOptions{K: k})
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if idp.Cost < exact.Cost*(1-1e-9) {
				t.Errorf("n=%d k=%d: IDP %v beats exact %v", n, k, idp.Cost, exact.Cost)
			}
			if err := idp.Plan.Validate(); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
			if idp.Plan.Set != bitset.Full(n) {
				t.Errorf("n=%d k=%d: coverage %v", n, k, idp.Plan.Set)
			}
			// Reported cost must equal the plan's recomputed cost.
			cp := idp.Plan.Clone()
			cp.RecomputeCards(g, cards)
			if got := cp.RecomputeCost(m); relDiff(got, idp.Cost) > 1e-9 {
				t.Errorf("n=%d k=%d: reported %v, recomputed %v", n, k, idp.Cost, got)
			}
		}
	}
}

// TestIDPHandlesLargeN: a 24-relation chain — beyond comfortable exhaustive
// search on one core — optimizes within a fixed work bound with K=8 and
// stays within a small factor of greedy. (IDP-1's block-collapse heuristic
// is not guaranteed to dominate greedy; ChainedLocal exists to close that
// gap.) The bound is on the work counters, not wall time, so it holds under
// -race and on slow hosts.
func TestIDPHandlesLargeN(t *testing.T) {
	n := 24
	cards, g := chainQuery(n, 464)
	m := cost.NewDiskNestedLoops()
	idp, err := IDP(cards, g, m, IDPOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	const maxConsidered, maxRounds = 249_866_974, 4
	if idp.Considered > maxConsidered {
		t.Errorf("IDP considered %d plans, want <= %d", idp.Considered, maxConsidered)
	}
	if idp.DPRounds > maxRounds {
		t.Errorf("IDP ran %d DP rounds, want <= %d", idp.DPRounds, maxRounds)
	}
	greedy, err := Greedy(cards, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if idp.Cost > greedy.Cost*2 {
		t.Errorf("IDP %v far worse than greedy %v on a chain", idp.Cost, greedy.Cost)
	}
	if err := idp.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if idp.DPRounds < 2 {
		t.Errorf("expected multiple DP rounds, got %d", idp.DPRounds)
	}
}

// TestChainedLocalNeverWorseThanIDP: the §7 hybrid's polishing step can only
// improve the IDP seed.
func TestChainedLocalNeverWorseThanIDP(t *testing.T) {
	n := 16
	cards, g := chainQuery(n, 100)
	m := cost.SortMerge{}
	opts := IDPOptions{K: 5, Stochastic: baseline.StochasticOptions{Seed: 3}}
	idp, err := IDP(cards, g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := ChainedLocal(cards, g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Cost > idp.Cost*(1+1e-9) {
		t.Errorf("ChainedLocal %v worse than its IDP seed %v", hybrid.Cost, idp.Cost)
	}
	if err := hybrid.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if hybrid.Considered <= idp.Considered {
		t.Error("polishing phase did not consider any plans")
	}
}

// TestGreedyCartesianOnly: greedy on a predicate-free query joins smallest
// pairs first — check the first join is the two smallest relations.
func TestGreedyCartesianOnly(t *testing.T) {
	cards := []float64{50, 3, 7, 1000}
	res, err := Greedy(cards, nil, cost.Naive{})
	if err != nil {
		t.Fatal(err)
	}
	// Deepest join must be {R1, R2} (3·7 = 21, the smallest product).
	found := false
	res.Plan.Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Set == bitset.Of(1, 2) {
			found = true
		}
	})
	if !found {
		t.Errorf("greedy did not product the smallest pair first:\n%s", res.Plan)
	}
}

// TestIDPEnumeratorCCPExact: with the block covering every unit, boundedDP
// under a CCP enumerator is an exact optimizer of the Cartesian-product-free
// space — on a chain (where no product can help) its cost must match the
// core CCP enumerator's optimum.
func TestIDPEnumeratorCCPExact(t *testing.T) {
	const n = 12
	cards, g := chainQuery(n, 300)
	m := cost.NewDiskNestedLoops()
	idp, err := IDP(cards, g, m, IDPOptions{K: n, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Optimize(core.Query{Cards: cards, Graph: g},
		core.Options{Model: m, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(idp.Cost, exact.Cost) > 1e-9 {
		t.Errorf("IDP/CCP K=n cost %v, core CCP optimum %v", idp.Cost, exact.Cost)
	}
	if err := idp.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

// TestIDPEnumeratorCCPBounded: the CCP guard in bounded rounds skips
// Cartesian splits (fewer splits costed than the full scan) and still emits
// a valid, cost-consistent full plan.
func TestIDPEnumeratorCCPBounded(t *testing.T) {
	const n, k = 16, 6
	cards, g := chainQuery(n, 250)
	m := cost.NewDiskNestedLoops()
	full, err := IDP(cards, g, m, IDPOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ccpRes, err := IDP(cards, g, m, IDPOptions{K: k, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	if ccpRes.Considered >= full.Considered {
		t.Errorf("CCP rounds costed %d splits, full scan %d — guard had no effect",
			ccpRes.Considered, full.Considered)
	}
	if err := ccpRes.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if ccpRes.Plan.Set != bitset.Full(n) {
		t.Fatalf("coverage %v", ccpRes.Plan.Set)
	}
	cp := ccpRes.Plan.Clone()
	cp.RecomputeCards(g, cards)
	if got := cp.RecomputeCost(m); relDiff(got, ccpRes.Cost) > 1e-9 {
		t.Errorf("reported %v, recomputed %v", ccpRes.Cost, got)
	}
}

// TestIDPEnumeratorDisconnectedFallback: a disconnected graph is ineligible
// for the CCP restriction, so unlike core.Optimize the hybrid must not error
// — rounds whose unit graph is disconnected fall back to the full scan (a
// round can become connected after an earlier round merges components, so
// per-round eligibility, not whole-query eligibility, governs the guard).
// The result must be a valid, covering, cost-consistent plan either way.
func TestIDPEnumeratorDisconnectedFallback(t *testing.T) {
	cards := []float64{50, 60, 70, 80, 90, 100}
	g := joingraph.Build([]joingraph.Pair{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, cards)
	m := cost.NewDiskNestedLoops()
	for _, e := range []core.Enumerator{core.EnumeratorCCP, core.EnumeratorAuto} {
		res, err := IDP(cards, g, m, IDPOptions{K: 4, Enumerator: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res.Plan.Set != bitset.Full(len(cards)) {
			t.Fatalf("%v: coverage %v", e, res.Plan.Set)
		}
		cp := res.Plan.Clone()
		cp.RecomputeCards(g, cards)
		if got := cp.RecomputeCost(m); relDiff(got, res.Cost) > 1e-9 {
			t.Errorf("%v: reported %v, recomputed %v", e, res.Cost, got)
		}
	}
	// Round 1's unit graph is disconnected, so its full scan runs unguarded:
	// the first collapse must succeed exactly as the default's does.
	def, err := IDP(cards, g, m, IDPOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	one, err := IDP(cards, g, m, IDPOptions{K: 6, Enumerator: core.EnumeratorCCP})
	if err != nil {
		t.Fatal(err)
	}
	// K = 6 covers all units in one round, so the whole run is one
	// disconnected-graph round: results must be bit-identical.
	if one.Cost != def.Cost || one.Considered != def.Considered || !one.Plan.Equal(def.Plan) {
		t.Error("single disconnected round diverged from the default scan")
	}
}
