package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/catalog"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/joingraph"
	"blitzsplit/internal/server"
	"blitzsplit/internal/spec"
)

// timeoutMS is sent with every body: the server's MaxTimeout, so a degraded
// answer can only mean a fault, never the 2 s default deadline being split
// across the ladder's rungs.
const timeoutMS = 30000

// paperModels are the three evaluation cost models of the paper (§6.1).
var paperModels = []string{"naive", "sortmerge", "dnl"}

// item is one request: the JSON body the server receives, which is also
// all the checker computes its expected answer from.
type item struct {
	body []byte
	// node is the cluster node the request is sent to.
	node int
	// shape groups the relabelings of one optimize-hot shape, whose answers
	// must all carry the same fingerprint; -1 elsewhere.
	shape int
}

// workload is one traffic mix: an endpoint, how many cluster nodes serve
// it, the warm-up requests sent once during set-up, and the timed request
// sequence. Every input is a pure function of the seed and the request
// index, so the same seed replays the same requests over HTTP and in-process.
type workload struct {
	path  string
	nodes int
	// prime is sent once, in order, at the end of every set-up.
	prime []*item
	// gen returns the i-th timed request.
	gen func(i int) *item
	// pass is the number of requests one in-process replay pass covers in
	// the traced run; the exact counts are taken over the first pass.
	pass int
	// rate bounds the requests per second the clients can reach on this
	// workload; rate × seconds requests are generated before the timed
	// phase, so that generation stays out of the measured loop.
	rate int
	// pre is the pregenerated prefix; written only before clients start.
	pre []*item
}

// at returns the i-th timed request, from the pregenerated prefix when it
// reaches that far.
func (w *workload) at(i int) *item {
	if i < len(w.pre) {
		return w.pre[i]
	}
	return w.gen(i)
}

// pregenerate fills the first n requests of the timed sequence on two
// goroutines. It must return before any client calls at.
func (w *workload) pregenerate(n int) {
	pre := make([]*item, n)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				pre[i] = w.gen(i)
			}
		}(g)
	}
	wg.Wait()
	w.pre = pre
}

var workloadNames = []string{"optimize-hot", "optimize-cold", "execute", "cluster-forward"}

// newWorkload builds the named workload for seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "optimize-hot":
		return hotWorkload(seed), nil
	case "optimize-cold":
		return coldWorkload(seed), nil
	case "execute":
		return executeWorkload(seed), nil
	case "cluster-forward":
		return clusterWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// Stream tags keep the random draws of different purposes independent.
const (
	streamHotPool = iota + 1
	streamHotDraw
	streamCold
	streamColdPrime
	streamExecPool
	streamExecOrder
	streamCluster
	streamClusterPrime
)

// rngFor returns a generator determined by (seed, stream, i) alone.
func rngFor(seed int64, stream, i int) *rand.Rand {
	s := splitmix(uint64(seed) ^ splitmix(uint64(stream)<<40^uint64(i)))
	return rand.New(&splitmixSource{s: s})
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// splitmixSource is a rand.Source64 that costs nothing to seed: the
// generators are created per request, and math/rand's default source spends
// microseconds seeding its 607-word state.
type splitmixSource struct{ s uint64 }

func (r *splitmixSource) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}
func (r *splitmixSource) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmixSource) Seed(seed int64) { r.s = uint64(seed) }

// shape is a generated query in base numbering.
type shape struct {
	cards []float64
	pairs []joingraph.Pair
	sels  []float64
	model string
}

var topologies = []string{"random", "chain", "star", "cycle", "clique"}

// randomShape draws n log-uniform cardinalities in [10, 10^5] over the given
// topology, with the paper's Appendix selectivities.
func randomShape(r *rand.Rand, n int, topology, model string) shape {
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = math.Round(math.Exp(math.Log(10) + r.Float64()*math.Log(1e4)))
	}
	var pairs []joingraph.Pair
	switch topology {
	case "random":
		pairs = joingraph.RandomConnectedEdgesRand(n, n/2, r)
	case "chain":
		pairs = joingraph.ChainEdges(r.Perm(n))
	case "star":
		pairs = joingraph.StarEdges(n, r.Intn(n))
	case "cycle":
		pairs = joingraph.CycleEdges(n)
	case "clique":
		pairs = joingraph.CliqueEdges(n)
	default:
		panic("perfbench: unknown topology " + topology)
	}
	return shape{cards: cards, pairs: pairs, sels: joingraph.EdgeSelectivities(pairs, cards), model: model}
}

// file renders the shape with relation i placed at position perm[i] and
// named after that position, so relabelings differ in both order and names.
// joinOrder permutes the join list; nil keeps it.
func (s shape) file(perm, joinOrder []int) spec.File {
	n := len(s.cards)
	if perm == nil {
		perm = identity(n)
	}
	f := spec.File{Relations: make([]catalog.Relation, n), Joins: make([]spec.Join, len(s.pairs))}
	for i, c := range s.cards {
		f.Relations[perm[i]] = catalog.Relation{Name: relName(perm[i]), Cardinality: c}
	}
	for k, p := range s.pairs {
		dst := k
		if joinOrder != nil {
			dst = joinOrder[k]
		}
		f.Joins[dst] = spec.Join{A: relName(perm[p[0]]), B: relName(perm[p[1]]), Selectivity: s.sels[k]}
	}
	return f
}

func relName(i int) string { return fmt.Sprintf("t%d", i) }

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func optimizeItem(f spec.File, model string) *item {
	body, err := json.Marshal(server.OptimizeRequest{File: f, Model: model, TimeoutMS: timeoutMS})
	if err != nil {
		panic(err) // a spec.File always marshals
	}
	return &item{body: body, shape: -1}
}

// hotWorkload: 256 connected n=10 shapes, 8 relabelings each; requests draw
// the shape by zipf (s≈1.1) and the relabeling uniformly. Set-up sends every
// relabeling once, so every timed answer is a plan-cache hit.
func hotWorkload(seed int64) *workload {
	const shapes, relabelings, n = 256, 8, 10
	pool := make([][]*item, shapes)
	var prime []*item
	for s := range pool {
		r := rngFor(seed, streamHotPool, s)
		sh := randomShape(r, n, "random", paperModels[r.Intn(len(paperModels))])
		pool[s] = make([]*item, relabelings)
		for k := range pool[s] {
			it := optimizeItem(sh.file(r.Perm(n), r.Perm(len(sh.pairs))), sh.model)
			it.shape = s
			pool[s][k] = it
			prime = append(prime, it)
		}
	}
	return &workload{
		path:  "/v1/optimize",
		nodes: 1,
		prime: prime,
		gen: func(i int) *item {
			r := rngFor(seed, streamHotDraw, i)
			z := rand.NewZipf(r, 1.1, 1, shapes-1)
			return pool[z.Uint64()][r.Intn(relabelings)]
		},
		pass: 4096,
		rate: 16_000,
	}
}

// coldWorkload: every request is a never-seen shape. Two in three requests
// have n=12 and one in three n=13, in a fixed pattern, so the median falls
// inside the n=12 mode and p90 inside the n=13 mode on every seed;
// topologies and models cycle through all combinations.
func coldWorkload(seed int64) *workload {
	gen := func(stream, i int) *item {
		r := rngFor(seed, stream, i)
		n := 12
		if i%3 == 2 {
			n = 13
		}
		topo := topologies[(i/3)%len(topologies)]
		model := paperModels[(i/(3*len(topologies)))%len(paperModels)]
		sh := randomShape(r, n, topo, model)
		return optimizeItem(sh.file(r.Perm(n), nil), model)
	}
	// Warm-up fills pay the DP-table arena's first allocation at both sizes,
	// which a server pays once; the shapes are disjoint from the timed ones.
	prime := []*item{gen(streamColdPrime, 0), gen(streamColdPrime, 2)}
	return &workload{
		path:  "/v1/optimize",
		nodes: 1,
		prime: prime,
		gen:   func(i int) *item { return gen(streamCold, i) },
		pass:  45,
		rate:  800,
	}
}

// executeWorkload: a fixed pool of 64 tree queries, n=5–8, 2k–20k rows per
// relation with FK-like selectivity 1/max(card), each with its own synthesis
// seed. Requests cycle through a seeded permutation of the pool; set-up runs
// each query once, so every timed plan comes from the cache and the time
// goes to synthesis and the vectorized joins.
func executeWorkload(seed int64) *workload {
	const poolSize = 64
	pool := make([]*item, poolSize)
	for j := range pool {
		r := rngFor(seed, streamExecPool, j)
		n := 5 + j%4
		// One cardinality per stratum of [2k, 20k] keeps every query's total
		// data volume close to the same value on every seed.
		cards := make([]float64, n)
		for k, p := range r.Perm(n) {
			cards[p] = math.Round(2000 + 18000*(float64(k)+r.Float64())/float64(n))
		}
		pairs := joingraph.RandomConnectedEdgesRand(n, 0, r)
		sels := make([]float64, len(pairs))
		for k, p := range pairs {
			sels[k] = 1 / math.Max(cards[p[0]], cards[p[1]])
		}
		sh := shape{cards: cards, pairs: pairs, sels: sels, model: paperModels[j%len(paperModels)]}
		f := sh.file(nil, nil)
		synthSeed := int64(splitmix(uint64(seed)^uint64(j)) >> 1)
		body, err := json.Marshal(server.ExecuteRequest{
			OptimizeRequest: server.OptimizeRequest{File: f, Model: sh.model, TimeoutMS: timeoutMS},
			Seed:            synthSeed,
		})
		if err != nil {
			panic(err)
		}
		pool[j] = &item{body: body, shape: -1}
	}
	order := rngFor(seed, streamExecOrder, 0).Perm(poolSize)
	return &workload{
		path:  "/v1/execute",
		nodes: 1,
		prime: pool,
		gen:   func(i int) *item { return pool[order[i%poolSize]] },
		pass:  2 * poolSize,
		rate:  0, // requests are pool entries: nothing to generate
	}
}

// clusterNodes is the benchmark's two-node membership. Ring ownership
// depends only on the IDs, so which shapes are forwarded repeats across runs
// even though the ports are random.
var clusterNodes = []string{"n0", "n1"}

// clusterWorkload: never-seen connected shapes at n=6–8, sent alternately
// to the two nodes. Every third request carries a shape the receiving node
// does not own, so exactly one request in three takes the forward hop: the
// median stays inside the local mode and p90 inside the forwarded mode on
// every seed, where an uncontrolled ~50% share would put the median on the
// boundary between the two.
func clusterWorkload(seed int64) *workload {
	ring := cluster.NewRing([]cluster.Node{
		{ID: clusterNodes[0], URL: "http://n0.invalid"},
		{ID: clusterNodes[1], URL: "http://n1.invalid"},
	}, cluster.DefaultVirtualNodes)
	gen := func(stream, i int) *item {
		r := rngFor(seed, stream, i)
		node := i % 2
		owner := node
		if i%3 == 0 {
			owner = 1 - node
		}
		n := 6 + (i/3)%3
		model := paperModels[(i/9)%len(paperModels)]
		var c canon.Canonicalizer
		for {
			sh := randomShape(r, n, "random", model)
			f := sh.file(r.Perm(n), nil)
			cq, _, err := f.Query()
			if err != nil {
				panic(err)
			}
			if err := c.Canonicalize(cq, canon.Options{}); err != nil {
				panic(err)
			}
			if ring.Owner(c.Fingerprint()).ID == clusterNodes[owner] {
				it := optimizeItem(f, model)
				it.node = node
				return it
			}
		}
	}
	// Warm-up opens the client and peer connections, forwards included.
	var prime []*item
	for i := 0; i < 12; i++ {
		prime = append(prime, gen(streamClusterPrime, i))
	}
	return &workload{
		path:  "/v1/optimize",
		nodes: 2,
		prime: prime,
		gen:   func(i int) *item { return gen(streamCluster, i) },
		pass:  756,
		rate:  8_000,
	}
}
