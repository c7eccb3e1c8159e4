package cli

import (
	"context"
	"fmt"
	"io"

	"doall"
)

// runContention explores the combinatorial machinery of Section 4: it
// searches for low-contention schedule lists, reports Cont(Σ) against the
// 3nH_n bound of Lemma 4.1, and (-dsweep) sweeps (d)-Cont(Σ) of a random
// list against the n·ln n + 8pd·ln(e+n/d) bound of Theorem 4.4.
func runContention(_ context.Context, args []string, w, errw io.Writer) error {
	fs := newFlagSet("contention", errw)
	n := fs.Int("n", 6, "permutation length (schedules over [n])")
	k := fs.Int("k", 0, "number of permutations in the list (default n)")
	restarts := fs.Int("restarts", 200, "random-restart search iterations")
	seed := fs.Int64("seed", 1, "random seed")
	dsweep := fs.Bool("dsweep", false, "sweep d-contention of a random list instead of searching")
	samples := fs.Int("samples", 100, "σ probes for contention estimates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k == 0 {
		*k = *n
	}

	if *dsweep {
		l := doall.RandomSchedules(*k, *n, *seed)
		fmt.Fprintf(w, "random list: k=%d permutations of [%d]\n", *k, *n)
		fmt.Fprintf(w, "%6s  %14s  %14s  %8s\n", "d", "(d)-Cont est", "Thm 4.4 bound", "ratio")
		for d := 1; d <= *n; d *= 2 {
			est := doall.DContentionEstimate(l, d, *samples, *seed)
			b := doall.DContentionBound(*n, *k, d)
			fmt.Fprintf(w, "%6d  %14d  %14.0f  %8.3f\n", d, est, b, float64(est)/b)
		}
		return nil
	}

	res := doall.SearchSchedules(*k, *n, *restarts, *seed)
	kind := "estimated"
	if res.Exact {
		kind = "exact"
	}
	fmt.Fprintf(w, "searched %d candidate lists (k=%d, n=%d)\n", res.Candidates, *k, *n)
	fmt.Fprintf(w, "best Cont(Σ) = %d (%s); Lemma 4.1 bound 3nH_n = %d\n",
		res.Cont, kind, doall.HarmonicBound(*n))
	fmt.Fprintf(w, "trivial bounds: n = %d ≤ Cont ≤ n² = %d\n", *n, *n**n)
	for i, p := range res.List {
		fmt.Fprintf(w, "  π_%d = %v\n", i, []int(p))
	}
	return nil
}
