package perm

import (
	"math"
	"math/rand"
)

// SearchResult describes a schedule list found by one of the search
// functions together with its (estimated or exact) contention.
type SearchResult struct {
	List List
	// Cont is the contention of List: exact when Exact is true, otherwise
	// a random-probe lower estimate.
	Cont int
	// Exact reports whether Cont was computed by exhaustive maximization
	// over S_n.
	Exact bool
	// Candidates is the number of candidate lists examined.
	Candidates int
}

// HarmonicBound returns ⌈3·n·H_n⌉, the contention bound of Lemma 4.1
// (Anderson & Woll): for every n there exists a list of n permutations with
// Cont(Σ) ≤ 3nH_n.
func HarmonicBound(n int) int {
	return int(math.Ceil(3 * float64(n) * Harmonic(n)))
}

// Harmonic returns the nth harmonic number H_n = Σ_{j=1..n} 1/j.
func Harmonic(n int) float64 {
	h := 0.0
	for j := 1; j <= n; j++ {
		h += 1 / float64(j)
	}
	return h
}

// DContBound returns the Corollary 4.5 bound n·ln n + 8·p·d·ln(e + n/d) on
// the d-contention of a list of p schedules from S_n.
func DContBound(n, p, d int) float64 {
	if n <= 0 || p <= 0 || d <= 0 {
		return 0
	}
	return float64(n)*math.Log(float64(n)) +
		8*float64(p)*float64(d)*math.Log(math.E+float64(n)/float64(d))
}

// FindLowContentionList searches for a list of k permutations of n elements
// with low contention. The paper (Section 4, after Lemma 4.1) notes that
// for constant n an exhaustive search suffices; we do exhaustive search of
// candidate lists only for very small spaces and otherwise random-restart
// sampling keeping the best list found, which matches the probabilistic
// existence argument (random lists meet the O(n log n) bound w.h.p.).
//
// The returned contention is exact for n ≤ maxExactN (contention evaluation
// enumerates S_n), estimated otherwise. Contention is (1)-contention, so
// this is FindLowDContentionList at d = 1.
func FindLowContentionList(k, n, restarts int, r *rand.Rand) SearchResult {
	return FindLowDContentionList(k, n, 1, restarts, r)
}

// FindLowDContentionList searches for a list of k permutations of n
// elements with low d-contention for the given d, by random restarts. This
// realizes Corollary 4.5 constructively: random lists meet the bound with
// probability ≥ 1 - e^{-n ln n·ln(7/e²) - p}, so a handful of restarts keeps
// the best comfortably below it.
//
// A candidate is kept only if its maximum over σ is below the best so far,
// so its evaluation stops counting once a partial sum reaches that bound
// (the sums only grow); the estimated path still draws every remaining σ,
// so r advances exactly as under full evaluation. Only the rejected
// candidates are cut short: the result is the same as without pruning.
func FindLowDContentionList(k, n, d, restarts int, r *rand.Rand) SearchResult {
	const maxExactN = 7
	exact := n <= maxExactN
	best := canonicalList(k, n)
	e := newEvaluator(best, d)
	eval := func(l List, stop int) int {
		e.l = l
		if exact {
			return e.maxOverSn(stop)
		}
		return e.estimate(64, r, stop)
	}
	bestCont := eval(best, math.MaxInt)
	candidates := 1
	// The search holds two lists, the best and the current candidate; a
	// rejected candidate's storage takes the next draw.
	cand, backing := make(List, k), make([]int, k*n)
	for i := 0; i < restarts; i++ {
		for u := range cand {
			cand[u] = RandomInto(n, r, backing[u*n:])
		}
		candidates++
		if c := eval(cand, bestCont); c < bestCont {
			best, bestCont = cand, c
			cand, backing = make(List, k), make([]int, k*n)
		}
	}
	return SearchResult{List: best, Cont: bestCont, Exact: exact, Candidates: candidates}
}

// canonicalList is a deterministic non-random starting list: rotations of
// the reverse permutation. Rotated reversals spread the left-to-right
// maxima of the members with respect to any single σ.
func canonicalList(k, n int) List {
	l := make(List, k)
	rev := Reverse(n)
	for u := range l {
		p := make(Perm, n)
		for i := range p {
			p[i] = rev[(i+u)%n]
		}
		l[u] = p
	}
	return l
}

// RotationList returns the list of k cyclic rotations of the reverse
// permutation of n elements (a cheap deterministic schedule list used as a
// baseline in experiments and by DA when no searched list is supplied).
func RotationList(k, n int) List { return canonicalList(k, n) }

// PrefixSumContention returns, for each u, Cont estimate contribution
// lrm(σ⁻¹∘π_u) for σ = identity. Used by diagnostics and the contention CLI.
func PrefixSumContention(l List) []int {
	out := make([]int, len(l))
	for u, p := range l {
		out[u] = LRM(p)
	}
	return out
}

// ExhaustiveBestList enumerates every list of k permutations of n elements
// (all (n!)^k of them) and returns one minimizing exact contention. It is
// only feasible for tiny n and k (e.g. n=3, k=3) and exists to validate the
// random search in tests; it panics if the space exceeds 1e6 lists.
func ExhaustiveBestList(k, n int) SearchResult {
	all := AllPerms(n)
	space := 1
	for i := 0; i < k; i++ {
		space *= len(all)
		if space > 1_000_000 {
			panic("perm: ExhaustiveBestList space too large")
		}
	}
	idx := make([]int, k)
	cur := make(List, k)
	best := SearchResult{Cont: math.MaxInt, Exact: true}
	for {
		for i, j := range idx {
			cur[i] = all[j]
		}
		if c := Cont(cur); c < best.Cont {
			best.List = cur.Clone()
			best.Cont = c
		}
		best.Candidates++
		i := k - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(all) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return best
		}
	}
}
