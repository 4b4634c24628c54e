package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/online"
	"repro/internal/server"
)

// The served workload: a plain dpmserved child on the disk preset, driven
// over loopback by two closed-loop clients with disjoint query families.
//
// Client A, per round: hits on its hot keys (horizon 1e4), cold optimizes
// at fresh horizons in (1e4, 2e4) and one 201-point sweep (horizon 2e3).
//
// Client B, per round: one regime-switching workload trace (two segments
// of servedSegment slices) streamed through /observe in batches, each
// batch followed by a hit on B's own hot keys (horizon 2e4). Observes that
// refresh the policy are the workload's warm re-solves.
//
// Fresh horizons come from a golden-ratio sequence, so none repeats. Hot
// keys and sweeps differ in max_pivots, a budget far above any solve's
// pivots: it is part of the cache key and changes no solve, so every hot key
// is solved cold in a family of its own and every sweep is a fresh key that
// repeats the same solver work. The cache outcome of every request follows
// from the schedule.
//
// Warm optimizes in a shared family are left out: warm-started solves of
// the daemon's uniform-start models return answers that fail the
// re-evaluation check on some inputs (see README.md). The sweep runs at the
// one horizon whose curve passes its checks.
const (
	servedModel     = "disk"
	servedCache     = 1 << 20 // LRU entries: far above the keys any run creates
	servedHot       = 8       // hot keys per client
	servedHitsA     = 96      // A's hits per round
	servedColdA     = 4
	servedSweepPts  = 201
	servedSegment   = 1024 // slices per workload regime
	servedBatch     = 128  // slices per observe request
	servedTraceBuf  = 32768
	hotHorizonA     = 1e4
	sweepHorizon    = 2e3
	hotKeyA         = 1_000_000 // max_pivots of hot key i: hotKeyA + i
	hotKeyB         = 1_100_000
	sweepKey        = 2_000_000 // max_pivots of sweep n: sweepKey + n
	hotHorizonB     = 2e4
	observeHorizonB = 1e4
)

// servedRegimes are the two workloads B's trace alternates between: the
// preset's own (p01, p10) and a heavier one.
var servedRegimes = [2][2]float64{{0.05, 0.15}, {0.2, 0.1}}

// golden yields the n-th point of a seeded golden-ratio sequence in [lo, hi):
// distinct n give distinct points, so fresh keys never repeat.
type golden struct{ u0, lo, hi float64 }

func (g golden) at(n int) float64 {
	const phi = 0.6180339887498949
	f := math.Mod(g.u0+phi*float64(n), 1)
	return g.lo + f*(g.hi-g.lo)
}

type servedPlan struct {
	pmin, pmax float64 // penalty range feasible at every horizon used
	hotA, hotB []float64
	coldH      golden // cold horizons
	orderA     []string
	seed       int64
	sys        *core.System
}

func (p *servedPlan) bound(f float64) float64 { return p.pmin + f*(p.pmax-p.pmin) }

func optReq(h, bound float64, maxPivots int) server.OptimizeRequest {
	return server.OptimizeRequest{
		Model: servedModel, Horizon: h, Objective: core.MetricPower, MaxPivots: maxPivots,
		Bounds: []server.BoundSpec{{Metric: core.MetricPenalty, Rel: "<=", Value: bound}},
	}
}

func observeReq(counts []int, first bool) server.ObserveRequest {
	req := server.ObserveRequest{Counts: counts}
	if first {
		// Least penalty under a power budget the deepest sleep state always
		// meets, so every refresh is feasible whatever the estimate.
		req.Horizon = observeHorizonB
		req.Model = servedModel
		req.Objective = core.MetricPenalty
		req.Bounds = []server.BoundSpec{{Metric: core.MetricPower, Rel: "<=", Value: 1.0}}
	}
	return req
}

// newServedPlan measures the disk preset's feasible penalty range with the
// library (uniform start, as the daemon solves) and draws the schedule.
func newServedPlan(seed int64) (*servedPlan, error) {
	d, err := cli.NewDevice(servedModel, 0, 0)
	if err != nil {
		return nil, err
	}
	p := &servedPlan{seed: seed, sys: d.Sys, pmin: math.Inf(-1), pmax: math.Inf(1)}
	m, err := d.Sys.Build()
	if err != nil {
		return nil, err
	}
	for _, h := range []float64{2e3, 5e3, 1e4, 2e4} {
		alpha := core.HorizonToAlpha(h)
		pi, err := core.PolicyIteration(m, core.MetricPenalty, alpha)
		if err != nil {
			return nil, err
		}
		p.pmin = math.Max(p.pmin, core.Uniform(m.N).Dot(pi.Value)*(1-alpha))
		res, err := core.Optimize(m, core.Options{Alpha: alpha, Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize}, SkipEvaluation: true})
		if err != nil {
			return nil, err
		}
		p.pmax = math.Min(p.pmax, res.Averages[core.MetricPenalty])
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x73657276))
	for i := 0; i < servedHot; i++ {
		p.hotA = append(p.hotA, p.bound(0.1+0.8*(float64(i)+rng.Float64())/servedHot))
		p.hotB = append(p.hotB, p.bound(0.1+0.8*(float64(i)+rng.Float64())/servedHot))
	}
	p.coldH = golden{rng.Float64(), 1e4, 2e4}
	for i := 0; i < servedHitsA; i++ {
		p.orderA = append(p.orderA, "hit")
	}
	for i := 0; i < servedColdA; i++ {
		p.orderA = append(p.orderA, "cold")
	}
	p.orderA = append(p.orderA, "sweep")
	rng.Shuffle(len(p.orderA), func(i, j int) { p.orderA[i], p.orderA[j] = p.orderA[j], p.orderA[i] })
	return p, nil
}

// traceB is B's workload trace for one round: a segment of each regime,
// one request per busy slice. Round −1 is the warm-up prefix.
func (p *servedPlan) traceB(round int) []int {
	rng := rand.New(rand.NewPCG(uint64(p.seed), uint64(round+2)))
	counts := make([]int, 0, 2*servedSegment)
	state := 0
	for _, reg := range servedRegimes {
		for i := 0; i < servedSegment; i++ {
			u := rng.Float64()
			if state == 0 && u < reg[0] {
				state = 1
			} else if state == 1 && u < reg[1] {
				state = 0
			}
			counts = append(counts, state)
		}
	}
	return counts
}

// daemon is one dpmserved child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

func startDaemon(bin string, traced bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-cache", fmt.Sprint(servedCache)}
	if traced {
		args = append(args, "-trace-buffer", fmt.Sprint(servedTraceBuf))
	}
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dpmserved: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		return nil, fmt.Errorf("dpmserved exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("dpmserved did not start listening")
	}
	c := newClient()
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		if st, _, err := c.get(d.base + "/v1/healthz"); err == nil && st == http.StatusOK {
			return d, nil
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("dpmserved healthz never answered")
		}
	}
}

// stop interrupts the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

type client struct{ hc *http.Client }

// newClient is one closed-loop client: a single keep-alive connection.
func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends one request and returns its status, body and latency: from
// send to the last byte of the response.
func (c *client) post(url string, body any) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, out, d, err
}

// answer is the part of an optimize response a hit must reproduce bit for
// bit.
type answer struct {
	obj  uint64
	avgs map[string]uint64
}

func answerOf(r *server.OptimizeResponse) answer {
	a := answer{obj: math.Float64bits(r.Objective), avgs: map[string]uint64{}}
	for k, v := range r.Averages {
		a.avgs[k] = math.Float64bits(v)
	}
	return a
}

func (a answer) equal(b answer) bool {
	if a.obj != b.obj || len(a.avgs) != len(b.avgs) {
		return false
	}
	for k, v := range a.avgs {
		if b.avgs[k] != v {
			return false
		}
	}
	return true
}

// servedRun holds one run's daemon, clients and tallies. Tallies are
// written by one client goroutine each and read after both have finished.
type servedRun struct {
	r    *run
	p    *servedPlan
	d    *daemon
	a, b *client

	mu       sync.Mutex
	lat      map[string][]float64
	failed   int64
	attempt  int64
	first    map[string]answer // first answer per optimize key
	problems []string

	nA, nB       int // rounds done by each client
	hitsB        int
	coldN        int // fresh keys consumed
	sweepN       int
	coldKeys     []server.OptimizeRequest
	obsFlags     []bool // refreshed, per observe, warm-up included
	obsBatches   [][]int
	sweepPivots  []float64
	sweepWarm    []float64
	refreshPivot []float64
}

func (s *servedRun) failf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.problems) < 50 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// call posts one request; timed calls count in attempted/failed and keep
// their latency under kind. A refused request fails.
func (s *servedRun) call(c *client, path string, body, out any, kind string, timed bool) bool {
	st, b, d, err := c.post(s.d.base+path, body)
	ok := err == nil && st == http.StatusOK
	if ok {
		ok = json.Unmarshal(b, out) == nil
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "served: %s %s: status %d err %v: %s\n", kind, path, st, err, bytes.TrimSpace(b))
	}
	if !timed {
		if !ok {
			s.failf("served: warm-up %s failed", kind)
		}
		return ok
	}
	s.mu.Lock()
	s.attempt++
	if ok {
		s.lat[kind] = append(s.lat[kind], ms(d))
	} else {
		s.failed++
	}
	s.mu.Unlock()
	return ok
}

func (s *servedRun) optimize(c *client, req server.OptimizeRequest, kind string, timed bool) *server.OptimizeResponse {
	var resp server.OptimizeResponse
	if !s.call(c, "/v1/optimize", req, &resp, kind, timed) {
		return nil
	}
	key := fmt.Sprint(req.Horizon, req.Bounds[0].Value, req.MaxPivots)
	s.mu.Lock()
	first, seen := s.first[key]
	if !seen {
		s.first[key] = answerOf(&resp)
	}
	s.mu.Unlock()
	if timed && resp.Cache != kind {
		s.failf("served: %s request answered as %q", kind, resp.Cache)
	}
	if !resp.Feasible {
		s.failf("served: %s request at horizon %g infeasible", kind, req.Horizon)
	}
	if seen && !answerOf(&resp).equal(first) {
		s.failf("served: hit at horizon %g bound %g differs from its first solve", req.Horizon, req.Bounds[0].Value)
	}
	return &resp
}

func (s *servedRun) nextCold() server.OptimizeRequest {
	req := optReq(s.p.coldH.at(s.coldN), s.p.bound(0.5), 0)
	s.coldN++
	s.coldKeys = append(s.coldKeys, req)
	return req
}

func (s *servedRun) sweep(c *client, timed bool) {
	req := server.SweepRequest{OptimizeRequest: optReq(sweepHorizon, 0, sweepKey+s.sweepN)}
	s.sweepN++
	req.Bounds = nil
	req.Sweep = server.SweepSpec{Metric: core.MetricPenalty, Rel: "<=", Workers: 2}
	for i := 0; i < servedSweepPts; i++ {
		req.Sweep.Values = append(req.Sweep.Values, s.p.bound(0.02+0.96*float64(i)/(servedSweepPts-1)))
	}
	var resp server.SweepResponse
	if !s.call(c, "/v1/sweep", req, &resp, "sweep", timed) {
		return
	}
	if resp.Cache != "miss" || resp.Feasible != servedSweepPts || resp.WarmStarted != servedSweepPts-2 {
		s.failf("served: sweep answered %q with %d feasible, %d warm-started points", resp.Cache, resp.Feasible, resp.WarmStarted)
	}
	obj := make([]float64, len(resp.Points))
	for i, pt := range resp.Points {
		obj[i] = pt.Objective
		if !pt.Feasible {
			obj[i] = math.Inf(1)
		}
	}
	checkCurve(s.failf, fmt.Sprintf("served: sweep %d", s.sweepN), req.Sweep.Values, obj)
	if timed {
		s.mu.Lock()
		s.sweepPivots = append(s.sweepPivots, float64(resp.Pivots))
		s.sweepWarm = append(s.sweepWarm, float64(resp.WarmStarted)/float64(len(resp.Points)))
		s.mu.Unlock()
	}
}

// roundA is one round of client A.
func (s *servedRun) roundA(round int, timed bool) {
	for i, kind := range s.p.orderA {
		switch kind {
		case "hit":
			k := (round*servedHitsA + i) % servedHot
			s.optimize(s.a, optReq(hotHorizonA, s.p.hotA[k], hotKeyA+k), "hit", timed)
		case "cold":
			s.optimize(s.a, s.nextCold(), "cold", timed)
		case "sweep":
			s.sweep(s.a, timed)
		}
	}
}

// roundB is one round of client B: its trace in batches, each followed by
// a hit. Observe latencies are kept apart for refreshing and quiet batches.
func (s *servedRun) roundB(round int, timed bool) {
	trace := s.p.traceB(round)
	for i := 0; i*servedBatch < len(trace); i++ {
		batch := trace[i*servedBatch : (i+1)*servedBatch]
		first := len(s.obsBatches) == 0
		var resp server.ObserveResponse
		st, b, d, err := s.b.post(s.d.base+"/v1/models/"+servedModel+"/observe", observeReq(batch, first))
		ok := err == nil && st == http.StatusOK && json.Unmarshal(b, &resp) == nil
		if !ok {
			fmt.Fprintf(os.Stderr, "served: observe: status %d err %v: %s\n", st, err, bytes.TrimSpace(b))
		}
		s.obsBatches = append(s.obsBatches, batch)
		s.obsFlags = append(s.obsFlags, resp.Refreshed)
		if ok && resp.RefreshError != "" {
			s.failf("served: refresh failed: %s", resp.RefreshError)
		}
		if timed {
			kind := "observe"
			if resp.Refreshed {
				kind = "refresh"
			}
			s.mu.Lock()
			s.attempt++
			if ok {
				s.lat[kind] = append(s.lat[kind], ms(d))
				if resp.Refreshed {
					s.refreshPivot = append(s.refreshPivot, float64(resp.Pivots))
				}
			} else {
				s.failed++
			}
			s.mu.Unlock()
		} else if !ok {
			s.failf("served: warm-up observe failed")
		}
		k := s.hitsB % servedHot
		s.optimize(s.b, optReq(hotHorizonB, s.p.hotB[k], hotKeyB+k), "hit", timed)
		s.hitsB++
	}
}

func (s *servedRun) stats() (map[string]int64, error) {
	st, b, err := s.a.get(s.d.base + "/v1/stats")
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("served: /v1/stats: status %d: %v", st, err)
	}
	var v struct {
		Counters map[string]int64 `json:"counters"`
	}
	return v.Counters, json.Unmarshal(b, &v)
}

// setupServed starts a daemon and warms it up: hot keys solved, one round
// of A's requests, and B's trace prefix streamed through its initial
// refresh.
func setupServed(r *run, p *servedPlan) (*servedRun, error) {
	d, err := startDaemon(filepath.Join(r.binDir, "dpmserved"), r.traced)
	if err != nil {
		return nil, err
	}
	s := &servedRun{r: r, p: p, d: d, a: newClient(), b: newClient(), lat: map[string][]float64{}, first: map[string]answer{}}
	for i := 0; i < servedHot; i++ {
		s.optimize(s.a, optReq(hotHorizonA, p.hotA[i], hotKeyA+i), "seed", false)
		s.optimize(s.b, optReq(hotHorizonB, p.hotB[i], hotKeyB+i), "seed", false)
	}
	s.roundA(0, false)
	s.roundB(-1, false)
	s.coldKeys = nil
	if len(s.problems) > 0 {
		d.stop()
		return nil, fmt.Errorf("served warm-up: %s", strings.Join(s.problems, "; "))
	}
	return s, nil
}

func served(r *run) (map[string]metric, error) {
	if r.binDir == "" {
		return nil, fmt.Errorf("served needs -bin, the directory holding dpmserved")
	}
	var s *servedRun
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		p, err := newServedPlan(r.seed)
		if err != nil {
			return nil, err
		}
		if s, err = setupServed(r, p); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.rssPeaks = append(r.rssPeaks, procStatusMB(fmt.Sprint(s.d.cmd.Process.Pid), "VmHWM:"))
		if i < setupRepeats-1 {
			s.d.stop()
		}
	}
	defer s.d.stop()
	// peak_rss_mb is the median over the set-up daemons of VmHWM after the
	// same warm-up. Read after timed rounds instead, it swung from 37 to
	// 47–61 MB in one run in five with the garbage collector's timing, and
	// the resident set grows all run long with the fresh keys the cache
	// keeps.
	r.peakRSS = median(r.rssPeaks)

	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	warmupObserves := len(s.obsFlags)
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ; s.nA == 0 || time.Now().Before(deadline); s.nA++ {
			s.roundA(s.nA+1, true)
		}
	}()
	go func() {
		defer wg.Done()
		for ; s.nB == 0 || time.Now().Before(deadline); s.nB++ {
			s.roundB(s.nB, true)
		}
	}()
	wg.Wait()
	r.window = time.Since(t0)
	after, err := s.stats()
	if err != nil {
		return nil, err
	}
	delta := map[string]int64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}

	// Checks outside the timed window: the stats deltas against the
	// schedule, the refreshes against a library replay of B's trace and a
	// sample of answers against the library's own evaluation.
	timedObserves := len(s.obsFlags) - warmupObserves
	obsPerRound := 2 * servedSegment / servedBatch
	oracle, err := replayOnline(s.p, s.obsBatches)
	if err != nil {
		return nil, err
	}
	refreshes := 0
	for i, f := range oracle {
		if f != s.obsFlags[i] {
			s.failf("served: observe %d refreshed=%v, library replay says %v", i, s.obsFlags[i], f)
			break
		}
		if i >= warmupObserves && f {
			refreshes++
		}
	}
	hits := int64(s.nA*servedHitsA + s.nB*obsPerRound)
	want := map[string]int64{
		"exact_hits":       hits,
		"warm_solves":      int64(s.nA * (servedSweepPts - 2)),
		"cold_solves":      int64(s.nA * (servedColdA + 2)),
		"optimize_queries": hits + int64(s.nA*servedColdA),
		"sweep_queries":    int64(s.nA),
		"observe_requests": int64(timedObserves),
		"online_refreshes": int64(refreshes),
		"shared_solves":    0,
		"evictions":        0,
		"infeasible":       0,
		"cancelled_solves": 0,
		"budget_exceeded":  0,
		"online_failed":    0,
	}
	for k, v := range want {
		if delta[k] != v {
			s.failf("served: /v1/stats %s moved by %d, the schedule predicts %d", k, delta[k], v)
		}
	}
	if int64(timedObserves) != int64(s.nB*obsPerRound) {
		s.failf("served: %d observes for %d rounds", timedObserves, s.nB)
	}
	s.checkPolicies()

	r.attempt, r.failed = s.attempt, s.failed
	r.problems = append(r.problems, s.problems...)
	r.lat = s.lat
	for _, k := range []string{"hit", "cold", "sweep", "observe", "refresh"} {
		r.counted += int64(len(s.lat[k]))
	}
	r.report(map[string]string{"cold": "solve_p50_ms", "refresh": "resolve_p50_ms", "sweep": "bulk_p50_ms"})
	fmt.Printf("served rounds A=%d B=%d refreshes=%d window=%.3fs\n", s.nA, s.nB, refreshes, r.window.Seconds())
	if !r.traced {
		return r.e2e("cold", "refresh", "sweep"), nil
	}
	return s.perLayer(delta)
}

// replayOnline feeds B's batches through a library online.Adapter set up
// exactly as the daemon sets up its own, and reports which batches
// refreshed.
func replayOnline(p *servedPlan, batches [][]int) ([]bool, error) {
	req := observeReq(nil, true)
	opts := core.Options{
		Alpha:          core.HorizonToAlpha(req.Horizon),
		Objective:      core.Objective{Metric: req.Objective, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: req.Bounds[0].Metric, Rel: lp.LE, Value: req.Bounds[0].Value}},
		SkipEvaluation: true,
	}
	rebuild := func(sr *core.ServiceRequester) (*core.System, error) {
		sys := *p.sys
		sys.SR = sr
		return &sys, nil
	}
	ad, err := online.New(rebuild, opts, online.Config{SolveBudget: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(batches))
	for i, b := range batches {
		o, err := ad.Observe(context.Background(), b)
		if err != nil {
			return nil, err
		}
		out[i] = o.Refreshed
	}
	return out, nil
}

// checkPolicies re-requests a sample of answers with include_policy (exact
// hits) and re-evaluates each policy with the library.
func (s *servedRun) checkPolicies() {
	m, err := s.p.sys.Build()
	if err != nil {
		s.failf("served: %v", err)
		return
	}
	var sample []server.OptimizeRequest
	for i := 0; i < servedHot; i++ {
		sample = append(sample, optReq(hotHorizonA, s.p.hotA[i], hotKeyA+i), optReq(hotHorizonB, s.p.hotB[i], hotKeyB+i))
	}
	sample = append(sample, s.coldKeys...)
	for _, req := range sample {
		req.IncludePolicy = true
		var resp server.OptimizeResponse
		if !s.call(s.a, "/v1/optimize", req, &resp, "check", false) {
			continue
		}
		if resp.Policy == nil || resp.Cache != "hit" {
			s.failf("served: policy re-request answered %q without policy=%v", resp.Cache, resp.Policy != nil)
			continue
		}
		pol, err := core.NewPolicy(mat.FromRows(resp.Policy.Dist))
		if err != nil {
			s.failf("served: served policy invalid: %v", err)
			continue
		}
		alpha := core.HorizonToAlpha(req.Horizon)
		ev, err := core.Evaluate(m, pol, core.Uniform(m.N), alpha)
		if err != nil {
			s.failf("served: evaluating served policy: %v", err)
			continue
		}
		if !relClose(ev.Averages[core.MetricPower], resp.Objective, 1e-6) {
			s.failf("served: horizon %g bound %g: re-evaluated power %.12g, served objective %.12g", req.Horizon, req.Bounds[0].Value, ev.Averages[core.MetricPower], resp.Objective)
		}
		if ev.Averages[core.MetricPenalty] > req.Bounds[0].Value*(1+1e-6) {
			s.failf("served: horizon %g: penalty %.12g exceeds bound %.12g", req.Horizon, ev.Averages[core.MetricPenalty], req.Bounds[0].Value)
		}
	}
}
