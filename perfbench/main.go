// Command perfbench is blitzsplit's benchmark: it drives blitzd's real HTTP
// serving stack (internal/server on loopback TCP, started in-process with a
// pinned Config) with one closed-loop client, checks every answer against
// an independent reference, and prints the end-to-end metrics; with
// --trace 1 it instead replays the same requests in-process, layer by
// layer, and prints the per-layer ledger. WORKLOADS.md explains the
// workloads and metrics. Run it from the repository root:
//
//	python3 perfbench/run.py --workload optimize-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object; the lines before it
// record the host, the sample counts and the quartiles behind every value.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// watchdog bounds a run: the benchmark must finish within 180 s.
const watchdog = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string
	// corrupt perturbs one expected answer; the run must then fail.
	corrupt bool
}

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload layer by layer and prints the per-layer metrics")
	fs.StringVar(&o.spansOut, "spans-out", "", "with --trace 1, write the first traced pass's spans here (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(errOut, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(errOut, "perfbench: --seconds must be positive")
		return 2
	}
	return measure(o, out, errOut)
}

// measure runs one benchmark invocation and returns its exit code: 0 only
// when every answer was correct.
func measure(o options, out, errOut io.Writer) int {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintln(out, hostRecord())
	cfg := pinnedConfig()
	fmt.Fprintf(out, "# config enumerator=blitz cache_bytes=%d arena_bytes=%d max_inflight=%d clients=%d nodes=%d timeout_ms=%d\n",
		cfg.EngineOptions.CacheBytes, cfg.EngineOptions.ArenaBytes, cfg.MaxInFlight, clients, w.nodes, timeoutMS)
	var rep *report
	if o.trace {
		rep, err = traced(w, o)
	} else {
		rep, err = endToEnd(w, o)
	}
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(out); err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	if rep.v.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value plus the distribution it summarizes.
type metric struct {
	name, unit string
	value      float64
	samples    []float64
}

func timeMetric(name, unit string, value float64, samples []float64) metric {
	return metric{name: name, unit: unit, value: value, samples: samples}
}

func countMetric(name, unit string, value float64) metric {
	return metric{name: name, unit: unit, value: value}
}

type report struct {
	attempted int
	v         verdict
	metrics   []metric
	// diag lines are printed before the result line.
	diag []string
}

func (r *report) print(out io.Writer) error {
	for _, d := range r.diag {
		fmt.Fprintln(out, "#", d)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.v.failed == 0, Attempted: r.attempted, Failed: r.v.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		line := fmt.Sprintf("# metric %-28s %-14.6g %-6s", m.name, m.value, m.unit)
		if len(m.samples) > 0 {
			q := quartiles(m.samples)
			line += fmt.Sprintf(" samples=%d q1=%.6g median=%.6g q3=%.6g", len(m.samples), q[0], q[1], q[2])
		}
		fmt.Fprintln(out, line)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(out, "# check attempted=%d failed=%d error_rate=%.6g\n", r.attempted, r.v.failed,
		float64(r.v.failed)/float64(max(r.attempted, 1)))
	for _, n := range r.v.notes {
		fmt.Fprintf(out, "# failure: %s\n", n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// quantile is the q-th quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 { return sortedQuantile(sortedCopy(xs), q) }

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	return [3]float64{sortedQuantile(s, 0.25), sortedQuantile(s, 0.5), sortedQuantile(s, 0.75)}
}

// hostRecord names the CPU, core counts, Go version, commit, and a digest
// of the module source, so a number can be traced to what produced it even
// in a checkout without version-control metadata.
func hostRecord() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	commit += dirty
	return fmt.Sprintf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest("."))
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
