package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"blitzsplit"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/server"
)

// pinnedConfig is the server configuration every run measures: the Config
// cmd/blitzd builds from its default flags, written out value by value so
// that a later change to a default cannot silently change what is measured
// or what counts as a correct answer.
func pinnedConfig() server.Config {
	return server.Config{
		EngineOptions: blitzsplit.EngineOptions{
			CacheBytes:          64 << 20,
			CacheShards:         16,
			ArenaBytes:          256 << 20,
			QuarantineThreshold: 3,
		},
		Enumerator:     blitzsplit.EnumeratorBlitz,
		MaxInFlight:    2 * runtime.GOMAXPROCS(0),
		AdmissionWait:  100 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxRelations:   30,
		MemBudget:      256 << 20,
		MaxBody:        1 << 20,
		MaxSynthRows:   4 << 20,
		VirtualNodes:   cluster.DefaultVirtualNodes,
	}
}

// node is one in-process server on a loopback listener.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// stack is the serving stack of one set-up: one node, or a two-node
// cluster.
type stack struct{ nodes []*node }

// startStack constructs n servers on loopback listeners and returns once
// every /readyz answers 200. With n > 1 the servers form a cluster whose
// membership is clusterNodes.
func startStack(n int) (*stack, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		peers[i] = cluster.Node{ID: clusterNodes[i], URL: "http://" + ln.Addr().String()}
	}
	st := &stack{}
	for i, ln := range lns {
		cfg := pinnedConfig()
		if n > 1 {
			cfg.NodeID, cfg.Peers = peers[i].ID, peers
		}
		srv := server.New(cfg)
		nd := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: peers[i].URL, served: make(chan error, 1)}
		go func() { nd.served <- nd.hs.Serve(ln) }()
		st.nodes = append(st.nodes, nd)
	}
	for _, nd := range st.nodes {
		if err := waitReady(nd.url); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func waitReady(url string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits for the cluster's asynchronous peer fills to finish.
func (st *stack) settle() {
	for _, nd := range st.nodes {
		nd.srv.ClusterSettle()
	}
}

// close shuts every server down and waits for its Serve loop to return.
func (st *stack) close() {
	st.settle()
	for _, nd := range st.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = nd.hs.Shutdown(ctx)
		cancel()
		if err := <-nd.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# warning: %s serve: %v\n", nd.url, err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
}

// serverVars are the /debug/vars counters the checker and the per-layer
// ledger read, summed over the stack's nodes.
type serverVars struct {
	ok, optimizations, coalesced, shed, degraded float64
}

func (a serverVars) sub(b serverVars) serverVars {
	return serverVars{a.ok - b.ok, a.optimizations - b.optimizations, a.coalesced - b.coalesced,
		a.shed - b.shed, a.degraded - b.degraded}
}

func (st *stack) vars() (serverVars, error) {
	var sum serverVars
	for _, nd := range st.nodes {
		var m map[string]json.RawMessage
		if err := getJSON(nd.url+"/debug/vars", &m); err != nil {
			return sum, err
		}
		num := func(key string) float64 {
			var v float64
			_ = json.Unmarshal(m[key], &v) // absent series read as 0
			return v
		}
		sum.ok += num(`blitzd_requests_total{code="200"}`)
		sum.optimizations += num("blitzd_optimizations_total")
		sum.coalesced += num("blitzd_coalesced_total")
		sum.shed += num("blitzd_shed_total")
		for _, rung := range []string{"threshold", "idp", "greedy"} {
			sum.degraded += num(`blitzd_degraded_total{rung="` + rung + `"}`)
		}
	}
	return sum, nil
}

// clusterTotals sums /v1/cluster/status over the nodes.
type clusterTotals struct {
	forwarded, forwardErrors, fillFetched float64
}

func (a clusterTotals) sub(b clusterTotals) clusterTotals {
	return clusterTotals{a.forwarded - b.forwarded, a.forwardErrors - b.forwardErrors, a.fillFetched - b.fillFetched}
}

func (st *stack) clusterStatus() (clusterTotals, error) {
	var sum clusterTotals
	if len(st.nodes) < 2 {
		return sum, nil
	}
	for _, nd := range st.nodes {
		var cs server.ClusterStatus
		if err := getJSON(nd.url+"/v1/cluster/status", &cs); err != nil {
			return sum, err
		}
		for _, v := range cs.Forwarded {
			sum.forwarded += float64(v)
		}
		for _, v := range cs.ForwardErrors {
			sum.forwardErrors += float64(v)
		}
		sum.fillFetched += float64(cs.FillFetched)
	}
	return sum, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
