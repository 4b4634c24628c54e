package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The composite workload: cold solves of the heterogeneous k=5 platform
// (648 states × 7 commands, horizon 1e5, minimum power under a drop-rate
// bound), warm re-solves at neighbouring bounds from each cold optimum,
// matrix-free stationary analysis plus simulation of the k=6 platform
// (9,720 states), and the matrix-free discounted evaluation of a k5 optimal
// policy, which fails today.
const (
	compHorizon   = 1e5
	compColdN     = 6 // cold solves per round, one per drop-bound stratum
	compEvalN     = 2 // k6 evaluations per round
	compSimSlices = 100000
	compStatTol   = 1e-10 // stationary iteration tolerance
	compReps      = 10    // simulation replications behind the confidence interval
)

// compColdBound is the cold drop bound of stratum i: the midpoints of six
// equal strata of [0.01, 0.04]. Cold-solve pivots swing by ±30% between
// bounds 2·10⁻⁴ apart, so the bounds are fixed and the seed orders them.
func compColdBound(i int) float64 { return 0.01 + 0.03*(float64(i)+0.5)/compColdN }

// compWarmSteps are the drop-bound shifts of the warm re-solves.
var compWarmSteps = []float64{-0.002, -0.001, -0.0005, 0.0005, 0.001, 0.002}

type compOp struct {
	kind      string // "k5_cold" (followed by its warm re-solve), "k6_eval" or "k5_discounted"
	bound     float64
	warmBound float64
	simSeed   int64

	res, wres      *core.Result
	bits, warmBits uint64
	pi             mat.Vector
	sim            *sim.Stats
	simBits        uint64
	discErr        error
	disc           *core.Evaluation
}

type compState struct {
	k5  *core.System
	m5  *core.Model
	k6  *core.System
	ops []*compOp
}

func (st *compState) opts(bound float64) core.Options {
	return core.Options{
		Alpha:          core.HorizonToAlpha(compHorizon),
		Initial:        core.Delta(st.m5.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: bound}},
		SkipEvaluation: true,
	}
}

func compSetup(r *run, seed int64) (*compState, error) {
	st := &compState{}
	sr := core.TwoStateSR("w", 0.05, 0.2)
	err := r.trace("compose", func(ctx context.Context) (err error) {
		span(ctx, "core.compose", func(context.Context) {
			if st.k5, err = devices.HeterogeneousSystem(5, 0, sr); err == nil {
				st.m5, err = st.k5.Build()
			}
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.k6, err = devices.HeterogeneousSystem(6, 4, sr); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(uint64(seed), 0x636f6d70))
	for _, i := range rng.Perm(compColdN) {
		b := compColdBound(i)
		d := compWarmSteps[rng.IntN(len(compWarmSteps))]
		st.ops = append(st.ops, &compOp{kind: "k5_cold", bound: b, warmBound: b + d})
	}
	for e := 0; e < compEvalN; e++ {
		at := rng.IntN(len(st.ops) + 1)
		op := &compOp{kind: "k6_eval", simSeed: rng.Int64N(1 << 40)}
		st.ops = append(st.ops[:at], append([]*compOp{op}, st.ops[at:]...)...)
	}
	st.ops = append(st.ops, &compOp{kind: "k5_discounted"})

	// Warm-up: one cold solve with its warm re-solve and one evaluation.
	var first, eval *compOp
	for _, op := range st.ops {
		switch {
		case op.kind == "k5_cold" && first == nil:
			first = op
		case op.kind == "k6_eval" && eval == nil:
			eval = op
		}
	}
	for _, op := range []*compOp{first, eval} {
		if err := compRun(r, st, op, nil, -1); err != nil {
			return nil, fmt.Errorf("composite warm-up: %w", err)
		}
	}
	return st, nil
}

// compRun runs one round entry; round < 0 is warm-up. pol is the policy of
// the round's first cold solve, which the discounted evaluation uses.
func compRun(r *run, st *compState, op *compOp, pol *core.Policy, round int) error {
	exec := func(kind string, fn func(ctx context.Context) error) error {
		if round < 0 {
			return fn(context.Background())
		}
		return r.timed(kind, fn)
	}
	switch op.kind {
	case "k5_cold":
		opts := st.opts(op.bound)
		var res *core.Result
		err := exec("k5_cold", func(ctx context.Context) error {
			prob, err := assemble(ctx, st.m5, opts)
			if err != nil {
				return err
			}
			res, err = solve(ctx, st.m5, opts, prob)
			return err
		})
		if err != nil {
			return err
		}
		wopts := st.opts(op.warmBound)
		wopts.WarmBasis = res.Basis
		var wres *core.Result
		err = exec("k5_warm", func(ctx context.Context) error {
			prob, err := assemble(ctx, st.m5, wopts)
			if err != nil {
				return err
			}
			wres, err = solve(ctx, st.m5, wopts, prob)
			return err
		})
		if err != nil {
			return err
		}
		if round == 0 {
			op.res, op.bits = res, math.Float64bits(res.Objective)
			op.wres, op.warmBits = wres, math.Float64bits(wres.Objective)
		} else if round > 0 && (math.Float64bits(res.Objective) != op.bits || math.Float64bits(wres.Objective) != op.warmBits) {
			r.failf("composite: solve at drop bound %g differs from round 0 in round %d", op.bound, round)
		}
	case "k6_eval":
		var (
			pi mat.Vector
			ss *sim.Stats
		)
		err := exec("k6_eval", func(ctx context.Context) error {
			var (
				cop *core.SystemOp
				err error
			)
			span(ctx, "core.command_op", func(context.Context) { cop, err = st.k6.CommandOp(0) })
			if err != nil {
				return err
			}
			span(ctx, "markov.stationary", func(context.Context) {
				var ch *markov.Chain
				if ch, err = markov.NewOp(cop, 1e-7); err == nil {
					pi, err = ch.StationaryIter(compStatTol, 0)
				}
			})
			if err != nil {
				return err
			}
			_, sp := obs.StartSpan(ctx, "sim.run")
			defer sp.End()
			t0 := time.Now()
			s, err := sim.NewDirect(st.k6, &policy.Constant{}, sim.Config{Seed: op.simSeed})
			if err == nil {
				ss, err = s.Run(compSimSlices)
			}
			if err == nil {
				sp.Set("sim.slices_per_s", compSimSlices/time.Since(t0).Seconds())
			}
			return err
		})
		if err != nil {
			return err
		}
		if round == 0 {
			op.pi, op.sim, op.simBits = pi, ss, math.Float64bits(ss.Averages[core.MetricPower])
		} else if round > 0 && math.Float64bits(ss.Averages[core.MetricPower]) != op.simBits {
			r.failf("composite: k6 simulation with seed %d differs from round 0 in round %d", op.simSeed, round)
		}
	case "k5_discounted":
		// Tallied in attempted/failed only: mending the fault must not read
		// as a latency or throughput regression.
		r.attempt++
		var ev *core.Evaluation
		err := r.trace("k5_discounted", func(ctx context.Context) (err error) {
			span(ctx, "markov.discounted_eval", func(context.Context) {
				ev, err = core.EvaluateFactored(st.k5, pol, st.opts(0).Initial, core.HorizonToAlpha(compHorizon))
			})
			return err
		})
		if err != nil {
			r.failed++
		}
		if round == 0 {
			op.disc, op.discErr = ev, err
		}
	}
	return nil
}

// compCheck verifies round 0 against oracles computed apart from the
// optimizer: explicit re-evaluation of each k5 policy, a cold re-solve at
// every warm bound, the stationarity residual of the k6 vector and the
// simulation against a confidence interval around the analytic value.
func compCheck(r *run, st *compState) {
	alpha := core.HorizonToAlpha(compHorizon)
	q0 := st.opts(0).Initial
	var firstCold *compOp
	for _, op := range st.ops {
		switch op.kind {
		case "k5_cold":
			if op.res == nil || op.wres == nil {
				r.failf("composite: solve at drop bound %g has no answer", op.bound)
				continue
			}
			if firstCold == nil {
				firstCold = op
			}
			for _, c := range []struct {
				res   *core.Result
				bound float64
			}{{op.res, op.bound}, {op.wres, op.warmBound}} {
				ev, err := core.Evaluate(st.m5, c.res.Policy, q0, alpha)
				if err != nil {
					r.failf("composite: re-evaluating policy at drop bound %g: %v", c.bound, err)
					continue
				}
				if !relClose(ev.Averages[core.MetricPower], c.res.Objective, 1e-6) {
					r.failf("composite: drop bound %g: re-evaluated power %.12g, LP objective %.12g", c.bound, ev.Averages[core.MetricPower], c.res.Objective)
				}
				if ev.Averages[core.MetricDrops] > c.bound*(1+1e-6) {
					r.failf("composite: drop bound %g: re-evaluated drops %.12g", c.bound, ev.Averages[core.MetricDrops])
				}
			}
			opts := st.opts(op.warmBound)
			cold, err := core.Optimize(st.m5, opts)
			if err != nil {
				r.failf("composite: cold re-solve at drop bound %g: %v", op.warmBound, err)
			} else if !relClose(cold.Objective, op.wres.Objective, 1e-8) {
				r.failf("composite: warm answer %.12g at drop bound %g, cold re-solve %.12g", op.wres.Objective, op.warmBound, cold.Objective)
			}
		case "k6_eval":
			if op.pi == nil || op.sim == nil {
				r.failf("composite: k6 evaluation has no answer")
				continue
			}
			compCheckK6(r, st, op)
		case "k5_discounted":
			if op.discErr == nil && firstCold != nil && !relClose(op.disc.Averages[core.MetricPower], firstCold.res.Objective, 1e-6) {
				r.failf("composite: discounted evaluation %.12g, LP objective %.12g", op.disc.Averages[core.MetricPower], firstCold.res.Objective)
			}
		}
	}
	if n := st.k6.SP.(*core.FactoredSP).CompiledChains(); n != 0 {
		r.failf("composite: the matrix-free k6 path compiled %d joint chains", n)
	}
}

// compCheckK6 checks the stationary vector (sums to one, residual
// ‖πP − π‖₁ ≤ 10·tol) and the simulation: the simulated average power and
// the simulated share of slices in the busy workload state must lie within
// four standard errors of their analytic values, the standard error taken
// from independent replications. Under the all-on command power is constant
// once the components settle, so its interval is floored at 1e-6 relative.
func compCheckK6(r *run, st *compState, op *compOp) {
	k6 := st.k6
	sum := 0.0
	for _, v := range op.pi {
		sum += v
	}
	cop, err := k6.CommandOp(0)
	if err != nil {
		r.failf("composite: %v", err)
		return
	}
	next := cop.MulVecT(op.pi)
	res := 0.0
	for i := range next {
		res += math.Abs(next[i] - op.pi[i])
	}
	if math.Abs(sum-1) > 1e-9 || res > 10*compStatTol {
		r.failf("composite: k6 stationary vector sums to %.15g with residual %.3g", sum, res)
	}

	power := k6.MetricFns()[core.MetricPower]
	anPower, anBusy := 0.0, 0.0
	for i, p := range op.pi {
		s := k6.StateOf(i)
		anPower += p * power(s, 0)
		if s.SR == 1 {
			anBusy += p
		}
	}
	busyShare := func(ss *sim.Stats) float64 {
		b := 0.0
		for i, f := range ss.Occupancy {
			if k6.StateOf(i).SR == 1 {
				b += f
			}
		}
		return b
	}
	var ps, bs []float64
	for k := 1; k <= compReps; k++ {
		s, err := sim.NewDirect(k6, &policy.Constant{}, sim.Config{Seed: op.simSeed + int64(k)})
		if err != nil {
			r.failf("composite: %v", err)
			return
		}
		ss, err := s.Run(compSimSlices)
		if err != nil {
			r.failf("composite: %v", err)
			return
		}
		ps = append(ps, ss.Averages[core.MetricPower])
		bs = append(bs, busyShare(ss))
	}
	if hw := math.Max(4*stddev(ps), 1e-6*anPower); math.Abs(op.sim.Averages[core.MetricPower]-anPower) > hw {
		r.failf("composite: simulated power %.12g outside %.12g ± %.3g", op.sim.Averages[core.MetricPower], anPower, hw)
	}
	if hw := 4 * stddev(bs); math.Abs(busyShare(op.sim)-anBusy) > hw {
		r.failf("composite: simulated busy share %.6g outside %.6g ± %.3g", busyShare(op.sim), anBusy, hw)
	}
}

func stddev(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)-1))
}

func composite(r *run) (map[string]metric, error) {
	var st *compState
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var err error
		if st, err = compSetup(r, r.seed); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	rounds := r.measure(func(round int) {
		var pol *core.Policy
		for _, op := range st.ops {
			if err := compRun(r, st, op, pol, round); err != nil {
				fmt.Fprintf(os.Stderr, "composite: %s failed: %v\n", op.kind, err)
			}
			if pol == nil && op.kind == "k5_cold" && op.res != nil {
				pol = op.res.Policy
			}
		}
	})
	compCheck(r, st)
	if r.traced {
		// obs.monitor_solve_ms: the cold solves again with a counting
		// flight recorder attached; untimed by the workload itself.
		events := 0
		mon := lp.MonitorFunc(func(lp.Snapshot) { events++ })
		for i := 0; i < compColdN; i++ {
			opts := st.opts(compColdBound(i))
			opts.LPMonitor = mon
			err := r.trace("monitor", func(ctx context.Context) (err error) {
				span(ctx, "obs.monitor_solve", func(context.Context) { _, err = core.Optimize(st.m5, opts) })
				return err
			})
			if err != nil {
				r.failf("composite: monitored solve: %v", err)
			}
		}
		fmt.Printf("composite monitor events=%d\n", events)
	}
	r.report(map[string]string{"k5_cold": "solve_p50_ms", "k5_warm": "resolve_p50_ms", "k6_eval": "bulk_p50_ms"})
	fmt.Printf("composite rounds=%d ops/round=%d\n", rounds, len(st.ops)+compColdN)
	if r.traced {
		return r.perLayer(), nil
	}
	return r.e2e("k5_cold", "k5_warm", "k6_eval"), nil
}
