package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blitzsplit/internal/server"
)

// clients is the closed-loop client count: each client is one query
// compiler that waits for its plan before asking for the next, on its own
// connection to each node.
const clients = 1

// response is one observed request.
type response struct {
	it     *item
	status int
	// err is a transport failure, an unexpected status or an undecodable
	// answer.
	err error
	lat time.Duration
	end time.Time
	ans answer
}

// answer is the part of a response body the checker needs. The client
// decodes it as soon as the response has arrived, as a caller parses its
// plan before asking for the next; keeping only these fields keeps a long
// run's memory small.
type answer struct {
	cost, card float64
	rows       int64
	mode       string
	degraded   bool
	// fp is a hash of the fingerprint header, which decodeAnswer has
	// checked against the body's copy.
	fp uint64
}

// decodeAnswer decodes a /v1/optimize or /v1/execute response.
func decodeAnswer(exec bool, status int, body []byte, fpHeader string) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	if exec {
		var er server.ExecuteResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return answer{}, fmt.Errorf("decode: %w", err)
		}
		return answer{rows: er.Rows, mode: er.Mode, degraded: er.Degraded}, nil
	}
	var or server.OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		return answer{}, fmt.Errorf("decode: %w", err)
	}
	if fpHeader == "" || fpHeader != or.Fingerprint {
		return answer{}, fmt.Errorf("fingerprint header %q, body %q", fpHeader, or.Fingerprint)
	}
	h := fnv.New64a()
	h.Write([]byte(fpHeader))
	return answer{cost: or.Cost, card: or.Cardinality, mode: or.Mode, degraded: or.Degraded, fp: h.Sum64()}, nil
}

// client is one closed-loop caller with its own connection per node.
type client struct {
	tr   *http.Transport
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, http: &http.Client{Transport: tr}}
}

// do sends one request, times it from send to the last body byte, then
// decodes the answer.
func (c *client) do(st *stack, path string, it *item) response {
	r := response{it: it}
	req, err := http.NewRequest(http.MethodPost, st.nodes[it.node].url+path, bytes.NewReader(it.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	c.buf.Reset()
	start := time.Now()
	resp, err := c.http.Do(req)
	if err == nil {
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	r.end = time.Now()
	r.lat = r.end.Sub(start)
	if err != nil {
		r.err = fmt.Errorf("transport: %w", err)
		return r
	}
	r.status = resp.StatusCode
	r.ans, r.err = decodeAnswer(path == "/v1/execute", resp.StatusCode, c.buf.Bytes(), resp.Header.Get(server.HeaderFingerprint))
	return r
}

// prime sends the workload's warm-up requests on the clients, each taking
// the next one in order as soon as its previous one returns.
func prime(st *stack, w *workload) []response {
	out := make([]response, len(w.prime))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.tr.CloseIdleConnections()
			for i := int(next.Add(1) - 1); i < len(out); i = int(next.Add(1) - 1) {
				out[i] = c.do(st, w.path, w.prime[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs the clients against the stack for d, each taking the next
// index of the workload's sequence as soon as its previous request returns.
// elapsed runs from the start until the last client stops.
func closedLoop(st *stack, w *workload, d time.Duration) (rs []response, elapsed time.Duration) {
	var next atomic.Int64
	per := make([][]response, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient()
			defer c.tr.CloseIdleConnections()
			for time.Now().Before(deadline) {
				it := w.at(int(next.Add(1) - 1))
				per[k] = append(per[k], c.do(st, w.path, it))
			}
		}(k)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		rs = append(rs, p...)
	}
	return rs, elapsed
}
