package scenario

import (
	"fmt"
	"math/rand"

	"doall/internal/adversary"
	"doall/internal/bounds"
	"doall/internal/core"
	"doall/internal/perm"
	"doall/internal/sim"
)

// Scale selects experiment sizes: Quick keeps each experiment under ~1s
// for tests and benchmarks; Full is what `doall experiments -scale full`
// runs.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Quick {
		return quick
	}
	return full
}

// DSweep returns the delay values the work experiments sweep.
func (s Scale) DSweep(t int) []int {
	var ds []int
	for d := 1; d <= 2*t; d *= 4 {
		ds = append(ds, d)
	}
	return ds
}

// E1LowerBoundDet measures the work that the Theorem 3.1 off-line
// adversary forces out of the deterministic algorithms (DA, PaDet) and
// compares it to the Ω(t + p·min{d,t}·log_{d+1}(d+t)) formula.
func E1LowerBoundDet(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	tb := NewTable("E1", fmt.Sprintf("Theorem 3.1: forced work of deterministic algorithms, p=%d t=%d", p, t),
		"d", "algo", "forced W", "Ω-bound", "W/Ω", "stages")
	tb.Note = "Work forced by the off-line stage adversary; W/Ω should stay bounded below and above by constants across d (shape agreement)."
	for _, algo := range []string{AlgoDA, AlgoPaDet} {
		for _, d := range s.DSweep(t) {
			ms, err := Scenario{Algorithm: algo, Adversary: AdvStageDet, P: p, T: t, D: int64(d), Seed: 3}.Machines()
			if err != nil {
				return nil, err
			}
			adv := adversary.NewStageDeterministic(int64(d), t)
			res, err := sim.Run(sim.Config{P: p, T: t}, ms, adv)
			if err != nil {
				return nil, err
			}
			lb := bounds.LowerBound(p, t, d)
			tb.AddRow(d, algo, res.Work, lb, bounds.Overhead(res.Work, lb), adv.Stages)
		}
	}
	return tb, nil
}

// E2LowerBoundRand measures the expected work the Theorem 3.4 adaptive
// adversary forces out of the randomized algorithms.
func E2LowerBoundRand(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	trials := s.pick(3, 10)
	tb := NewTable("E2", fmt.Sprintf("Theorem 3.4: forced expected work of randomized algorithms, p=%d t=%d (%d trials)", p, t, trials),
		"d", "algo", "E[W] forced", "Ω-bound", "W/Ω")
	tb.Note = "Expected work under the adaptive intent-observing adversary."
	for _, algo := range []string{AlgoPaRan1, AlgoPaRan2} {
		for _, d := range s.DSweep(t) {
			var total float64
			for i := 0; i < trials; i++ {
				ms, err := Scenario{Algorithm: algo, P: p, T: t, Seed: int64(100 + i)}.Machines()
				if err != nil {
					return nil, err
				}
				adv := adversary.NewStageOnline(int64(d), t)
				res, err := sim.Run(sim.Config{P: p, T: t}, ms, adv)
				if err != nil {
					return nil, err
				}
				total += float64(res.Work)
			}
			avg := total / float64(trials)
			lb := bounds.LowerBound(p, t, d)
			tb.AddRow(d, algo, avg, lb, avg/lb)
		}
	}
	return tb, nil
}

// E3Contention reproduces Lemma 4.1/4.2: the searched schedule lists meet
// the 3nH_n contention bound, and ObliDo's primary job executions stay
// below Cont(Σ).
func E3Contention(s Scale) (*Table, error) {
	tb := NewTable("E3", "Lemma 4.1/4.2: contention of searched lists and ObliDo primary executions",
		"n", "Cont(Σ)", "3nH_n", "primary execs (max over d)", "n² (oblivious)")
	tb.Note = "Cont(Σ) is exact (exhaustive over S_n). Primary executions measured under fair adversaries with d ∈ {1,2,4}; Lemma 4.2 requires primary ≤ Cont(Σ)."
	restarts := s.pick(100, 400)
	for _, n := range []int{3, 4, 5, 6} {
		r := rand.New(rand.NewSource(int64(n)))
		res := perm.FindLowContentionList(n, n, restarts, r)
		var maxPrimary int64
		for _, d := range []int64{1, 2, 4} {
			ms := core.NewObliDo(n, n, res.List)
			rr, err := sim.Run(sim.Config{P: n, T: n}, ms, adversary.NewFair(d))
			if err != nil {
				return nil, err
			}
			if rr.PrimaryExecutions > maxPrimary {
				maxPrimary = rr.PrimaryExecutions
			}
		}
		tb.AddRow(n, res.Cont, perm.HarmonicBound(n), maxPrimary, n*n)
	}
	return tb, nil
}

// E4DContention reproduces Lemma 4.3/Theorem 4.4: the d-contention of
// random schedule lists stays below n·ln n + 8pd·ln(e+n/d) for every d.
func E4DContention(s Scale) (*Table, error) {
	n := s.pick(128, 512)
	p := s.pick(8, 16)
	samples := s.pick(30, 100)
	tb := NewTable("E4", fmt.Sprintf("Theorem 4.4: d-contention of a random list, n=%d p=%d", n, p),
		"d", "(d)-Cont estimate", "bound n·ln n+8pd·ln(e+n/d)", "est/bound")
	tb.Note = "The estimate maximizes over random σ probes (a lower bound on the true d-contention); the theorem guarantees the true value is below the bound w.h.p."
	r := rand.New(rand.NewSource(4))
	l := perm.RandomList(p, n, r)
	for d := 1; d <= n/4; d *= 4 {
		est := perm.DContEstimate(l, d, samples, r)
		b := perm.DContBound(n, p, d)
		tb.AddRow(d, est, b, float64(est)/b)
	}
	return tb, nil
}

// E5DAWork reproduces Theorem 5.4/5.5: DA(q) work as a function of d, with
// the O(t·p^ε + p·min{t,d}·⌈t/d⌉^ε) curve and the oblivious p·t ceiling.
func E5DAWork(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	tb := NewTable("E5", fmt.Sprintf("Theorem 5.5: DA(q) work vs delay, p=%d t=%d", p, t),
		"d", "q", "W", "M", "UB(ε=0.5)", "W/UB", "p·t")
	tb.Note = "W must grow with d, stay below p·t for d ≪ t, and approach it as d → t."
	for _, q := range []int{2, 4} {
		for _, d := range s.DSweep(t) {
			out, err := Run(Scenario{Algorithm: AlgoDA, P: p, T: t, Q: q, D: int64(d), Seed: 5})
			if err != nil {
				return nil, err
			}
			res := out.Sim
			ub := bounds.DAUpperBound(p, t, d, 0.5)
			tb.AddRow(d, q, res.Work, res.Messages, ub, bounds.Overhead(res.Work, ub), p*t)
		}
	}
	return tb, nil
}

// E6PaRanWork reproduces Theorem 6.2/Corollary 6.4: expected work of the
// randomized permutation algorithms vs the O(t·log p + p·d·log(2+t/d))
// curve.
func E6PaRanWork(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	trials := s.pick(3, 10)
	tb := NewTable("E6", fmt.Sprintf("Theorem 6.2: PaRan expected work vs delay, p=%d t=%d (%d trials)", p, t, trials),
		"d", "algo", "E[W]", "E[M]", "UB", "W/UB", "p·t")
	for _, algo := range []string{AlgoPaRan1, AlgoPaRan2} {
		for _, d := range s.DSweep(t) {
			avg, err := RunAvg(Scenario{Algorithm: algo, P: p, T: t, D: int64(d), Seed: 6, Trials: trials})
			if err != nil {
				return nil, err
			}
			ub := bounds.PAUpperBound(p, t, d)
			tb.AddRow(d, algo, avg.Work, avg.Messages, ub, avg.Work/ub, p*t)
		}
	}
	return tb, nil
}

// E7PaDetWork reproduces Theorem 6.3/Corollary 6.5: PaDet work with a
// searched low-d-contention schedule list.
func E7PaDetWork(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	tb := NewTable("E7", fmt.Sprintf("Theorem 6.3: PaDet work vs delay, p=%d t=%d", p, t),
		"d", "W", "M", "UB", "W/UB")
	for _, d := range s.DSweep(t) {
		out, err := Run(Scenario{Algorithm: AlgoPaDet, P: p, T: t, D: int64(d), Seed: 7})
		if err != nil {
			return nil, err
		}
		res := out.Sim
		ub := bounds.PAUpperBound(p, t, d)
		tb.AddRow(d, res.Work, res.Messages, ub, bounds.Overhead(res.Work, ub))
	}
	return tb, nil
}

// E8LargeDelay reproduces Proposition 2.2: when d = Ω(t), every algorithm
// is forced to ~p·t work and the oblivious algorithm is optimal.
func E8LargeDelay(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(128, 512)
	tb := NewTable("E8", fmt.Sprintf("Proposition 2.2: work at d = Ω(t), p=%d t=%d", p, t),
		"algo", "d", "W", "p·t", "W/(p·t)")
	tb.Note = "At d ≥ t no algorithm can beat the oblivious bound by more than a constant."
	for _, algo := range []string{AlgoAllToAll, AlgoDA, AlgoPaRan1, AlgoPaDet} {
		for _, d := range []int{t, 2 * t} {
			out, err := Run(Scenario{Algorithm: algo, P: p, T: t, D: int64(d), Seed: 8})
			if err != nil {
				return nil, err
			}
			res := out.Sim
			tb.AddRow(algo, d, res.Work, p*t, float64(res.Work)/float64(p*t))
		}
	}
	return tb, nil
}

// E9Messages reproduces Theorem 5.6 and the message bounds of Theorems
// 6.2/6.3: M ≤ (p-1)·W for every algorithm (each step broadcasts at most
// once), and the PA message totals against their analytic bound.
func E9Messages(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	t := s.pick(256, 1024)
	d := 4
	tb := NewTable("E9", fmt.Sprintf("Theorems 5.6/6.2: message complexity, p=%d t=%d d=%d", p, t, d),
		"algo", "W", "M", "M/W", "(p-1) ceiling", "PA M-bound")
	for _, algo := range []string{AlgoDA, AlgoPaRan1, AlgoPaRan2, AlgoPaDet} {
		out, err := Run(Scenario{Algorithm: algo, P: p, T: t, D: int64(d), Seed: 9})
		if err != nil {
			return nil, err
		}
		res := out.Sim
		ratio := float64(res.Messages) / float64(res.Work)
		paBound := ""
		if algo != AlgoDA {
			paBound = trimFloat(bounds.PAMessageBound(p, t, d))
		}
		tb.AddRow(algo, res.Work, res.Messages, ratio, p-1, paBound)
	}
	return tb, nil
}

// E10Crossover runs DA and the PA family head-to-head across the (t, d)
// grid and reports the winner, reproducing the Section 1.2 discussion:
// PA's t·log p beats DA's t·p^ε for large t/d; for tiny instances DA's
// constant-size permutations can win.
func E10Crossover(s Scale) (*Table, error) {
	p := s.pick(8, 16)
	tb := NewTable("E10", fmt.Sprintf("Section 1.2: DA vs PA head-to-head, p=%d", p),
		"t", "d", "W(DA q=2)", "W(PaDet)", "W(PaRan1)", "winner")
	ts := []int{s.pick(64, 256), s.pick(256, 1024), s.pick(512, 4096)}
	for _, t := range ts {
		for _, d := range []int{1, 8, 64} {
			da, err := Run(Scenario{Algorithm: AlgoDA, P: p, T: t, D: int64(d), Seed: 10})
			if err != nil {
				return nil, err
			}
			det, err := Run(Scenario{Algorithm: AlgoPaDet, P: p, T: t, D: int64(d), Seed: 10})
			if err != nil {
				return nil, err
			}
			avg, err := RunAvg(Scenario{Algorithm: AlgoPaRan1, P: p, T: t, D: int64(d), Seed: 10, Trials: s.pick(3, 5)})
			if err != nil {
				return nil, err
			}
			wDA, wDet := da.Sim.Work, det.Sim.Work
			winner := "DA"
			best := wDA
			if wDet < best {
				winner, best = "PaDet", wDet
			}
			if int64(avg.Work) < best {
				winner = "PaRan1"
			}
			tb.AddRow(t, d, wDA, wDet, avg.Work, winner)
		}
	}
	return tb, nil
}

// AllExperiments runs every experiment at the given scale, in index order.
// This list is the experiment index (E1–E10) that doall experiments, the
// root package's benchmarks and README refer to.
func AllExperiments(s Scale) ([]*Table, error) {
	fns := []func(Scale) (*Table, error){
		E1LowerBoundDet, E2LowerBoundRand, E3Contention, E4DContention,
		E5DAWork, E6PaRanWork, E7PaDetWork, E8LargeDelay, E9Messages,
		E10Crossover,
	}
	out := make([]*Table, 0, len(fns))
	for _, fn := range fns {
		t, err := fn(s)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
