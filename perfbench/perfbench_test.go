package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// onePass replays the first traced pass of a workload and returns its exact
// counts, failing the test on any wrong answer.
func onePass(t *testing.T, name string, seed int64) exactCounts {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	w.pregenerate(w.pass)
	chk := newChecker(w)
	items := append(append([]*item(nil), w.prime...), w.pre...)
	chk.prepare(items)
	var v verdict
	p, err := newReplay(w, chk, &v, true)
	if err != nil {
		t.Fatal(err)
	}
	p.run()
	p.close()
	if v.failed > 0 {
		t.Fatalf("%d wrong answers: %v", v.failed, v.notes)
	}
	return p.counts
}

// TestExactCountsRepeat: for a fixed seed, the counts a replay pass reports
// — DP work in the paper's units, plan-cache misses and inserts, forwards,
// intermediate rows — are identical across runs. They are the evidence a
// claim about work done rests on.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := onePass(t, name, 11), onePass(t, name, 11)
			if a != b {
				t.Fatalf("counts differ between runs:\n%+v\n%+v", a, b)
			}
			switch name {
			case "optimize-hot":
				if a.CacheMisses != 0 || a.CacheHits == 0 {
					t.Errorf("hot pass should only hit the plan cache: %+v", a)
				}
			case "optimize-cold":
				if a.LoopIters == 0 || a.KppEvals == 0 || a.CacheInserts != a.CacheMisses {
					t.Errorf("cold pass should fill and insert every shape: %+v", a)
				}
			case "execute":
				if a.IntermediateRows == 0 {
					t.Errorf("execute pass produced no intermediate rows: %+v", a)
				}
			case "cluster-forward":
				// One request in three is sent to the node that does not
				// own its shape.
				if want := (756 + 2) / 3; a.Forwarded != want {
					t.Errorf("forwarded %d of 756, want %d", a.Forwarded, want)
				}
			}
		})
	}
}

// TestCorruptExpectationFails is the checker's self-test: with one expected
// answer perturbed, the run must report the failure and exit non-zero; the
// same run unperturbed must pass.
func TestCorruptExpectationFails(t *testing.T) {
	for _, name := range []string{"optimize-cold", "execute"} {
		for _, corrupt := range []bool{false, true} {
			var out bytes.Buffer
			code := measure(options{workload: name, seed: 5, seconds: 0.3, corrupt: corrupt}, &out, io.Discard)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
			}
			if wantFail := corrupt; (code != 0) != wantFail || res.Correct == wantFail || (res.Failed > 0) != wantFail {
				t.Errorf("%s corrupt=%v: exit %d, result %+v\n%s", name, corrupt, code, res, out.String())
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
