// Command perfbench is the repository's end-to-end benchmark. It times the
// public calls of the program's modules from outside, on three seeded
// workloads, and prints one JSON result line:
//
//	perfbench -workload paper-disk|composite|served -seed N -seconds S -trace 0|1
//
// Every workload is a fixed, seeded round of operations that the run repeats
// whole until -seconds have passed, so every run does the same work per round
// and only the time it takes varies. Latencies are raw samples kept per
// operation kind; quantiles are exact. Correctness checks run outside the
// timed region and a failed check makes the result incorrect. With -trace 1
// the run records spans around the timed calls and reports per-layer
// metrics instead of the end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupRepeats is how many times each workload builds its state and warms
// up; setup_s is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state shared by every workload: samples per operation kind,
// operation tallies, the traces of a traced run and the correctness
// verdict.
type run struct {
	name     string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	binDir   string
	traces   []obs.TraceJSON      // traced runs: one per traced unit
	lat      map[string][]float64 // ms per op kind
	setup    []float64            // seconds per setup repeat
	attempt  int64
	failed   int64
	counted  int64         // ops in ops_per_s
	busy     time.Duration // wall time of the counted ops
	window   time.Duration // measured window, when ops overlap (served)
	problems []string
	peakRSS  float64   // MB
	roundRSS float64   // highest VmRSS sampled in the current round, MB
	rssPeaks []float64 // per-round highest VmRSS (served: VmHWM of each set-up daemon), MB
}

func (r *run) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 50 {
		r.problems = append(r.problems, msg)
	}
}

// trace runs fn as one unit of the per-layer split. In a traced run fn's
// context carries an obs trace named kind, and the finished trace is kept;
// otherwise it carries none and every obs span under it is a no-op.
func (r *run) trace(kind string, fn func(ctx context.Context) error) error {
	if !r.traced {
		return fn(context.Background())
	}
	ctx, tr := obs.StartTrace(context.Background(), kind, kind)
	err := fn(ctx)
	tr.Finish()
	r.traces = append(r.traces, tr.Export())
	return err
}

// timed runs one counted, traced operation of kind and records its
// latency. An error counts the operation as failed and keeps its time out
// of the latency samples and ops_per_s.
func (r *run) timed(kind string, fn func(ctx context.Context) error) error {
	r.attempt++
	t0 := time.Now()
	err := r.trace(kind, fn)
	d := time.Since(t0)
	if err != nil {
		r.failed++
		return err
	}
	r.lat[kind] = append(r.lat[kind], ms(d))
	r.counted++
	r.busy += d
	r.roundRSS = max(r.roundRSS, procStatusMB("self", "VmRSS:"))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the exact nearest-rank q-quantile of the samples.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// procStatusMB reads one memory field of /proc/<pid>/status in MB: VmHWM
// is the peak resident set size, VmRSS the current one.
func procStatusMB(pid, field string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// measure repeats whole rounds until the deadline. The deadline is checked
// only between rounds, so every run attempts whole rounds. peak_rss_mb is
// the median over rounds of the highest resident set size sampled after
// each operation: the process's VmHWM alone swings by half between runs of
// the same seed with the garbage collector's timing.
func (r *run) measure(round func(i int)) int {
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	n := 0
	for ; n == 0 || time.Now().Before(deadline); n++ {
		r.roundRSS = 0
		round(n)
		r.rssPeaks = append(r.rssPeaks, r.roundRSS)
	}
	r.peakRSS = median(r.rssPeaks)
	return n
}

// e2e collects the end-to-end metrics every workload reports; solve,
// resolve and bulk name the operation kinds that fill the three latency
// roles on this workload.
func (r *run) e2e(solve, resolve, bulk string) map[string]metric {
	m := map[string]metric{
		"setup_s":     {median(r.setup), "s"},
		"peak_rss_mb": {r.peakRSS, "MB"},
	}
	window := r.window
	if window == 0 {
		window = r.busy
	}
	m["ops_per_s"] = metric{float64(r.counted) / window.Seconds(), "1/s"}
	for role, kind := range map[string]string{"solve_p50_ms": solve, "resolve_p50_ms": resolve, "bulk_p50_ms": bulk} {
		m[role] = metric{median(r.lat[kind]), "ms"}
	}
	return m
}

// report prints the human-readable summary lines: every operation kind with
// its sample count, p50 and, where at least ten samples lie beyond it, p99.
func (r *run) report(names map[string]string) {
	kinds := make([]string, 0, len(r.lat))
	for k := range r.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := r.lat[k]
		line := fmt.Sprintf("%s %-10s n=%-6d p50=%.4f ms", r.name, k, len(xs), median(xs))
		if tailOK(len(xs), 0.99) {
			line += fmt.Sprintf(" p99=%.4f ms", quantile(xs, 0.99))
		}
		if alias := names[k]; alias != "" {
			line += "  (" + alias + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("%s attempted=%d failed=%d setup_s=%v\n", r.name, r.attempt, r.failed, r.setup)
}

// writeTraces writes the run's traces to the span file of a traced run.
func (r *run) writeTraces() error {
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.traces)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.name, r.seed)), b, 0o644)
}

func main() {
	workload := flag.String("workload", "", "paper-disk, composite or served")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	binDir := flag.String("bin", "", "directory holding the built dpmserved binary (served)")
	outDir := flag.String("out", "", "directory for span files of traced runs")
	flag.Parse()
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	r := &run{
		name: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		binDir: *binDir, outDir: *outDir,
		lat: map[string][]float64{},
	}
	var (
		metrics map[string]metric
		err     error
	)
	switch *workload {
	case "paper-disk":
		metrics, err = paperDisk(r)
	case "composite":
		metrics, err = composite(r)
	case "served":
		metrics, err = served(r)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.traced {
		if err := r.writeTraces(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out, _ := json.Marshal(result{
		Correct: len(r.problems) == 0, Attempted: r.attempt, Failed: r.failed, Metrics: metrics,
	})
	fmt.Println(string(out))
}
