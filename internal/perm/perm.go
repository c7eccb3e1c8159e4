// Package perm implements the permutation and contention machinery of
// Kowalski & Shvartsman (PODC 2003 / I&C 2005), Section 4: permutations on
// [n], left-to-right maxima, the Anderson–Woll contention measure Cont(Σ),
// and its delay-sensitive generalization (d)-Cont(Σ).
//
// A Perm p represents the permutation π of {0,…,n-1} with π(i) = p[i].
// (The paper uses 1-based [n]; we use 0-based throughout and translate in
// documentation only.)
//
// Cost. d-left-to-right maxima are counted with a running top-d min-heap
// in O(n log d) per permutation, so one (d)-Cont(Σ, σ) evaluation of p
// schedules costs O(p·n log d) and allocates nothing: σ⁻¹, each σ⁻¹∘π_u
// and the heap live in buffers reused across σ. Contention is the d = 1
// case of d-contention and shares its code path.
//
// Pruning. The schedule-list searches keep a candidate only if its maximum
// over σ is below the best contention found so far. The per-σ sum only
// grows, so a candidate is abandoned as soon as any partial sum reaches
// that bound. Abandoned candidates still draw every remaining random σ,
// and winners are always evaluated in full, so a pruned search returns the
// same list, contention and candidate count, and leaves the generator in
// the same state, as an unpruned one.
package perm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Perm is a permutation of {0,…,n-1} in one-line notation: Perm[i] is the
// image of i.
type Perm []int

// ErrNotPermutation is returned by Check for slices that are not a
// permutation of {0,…,n-1}.
var ErrNotPermutation = errors.New("perm: not a permutation of {0,…,n-1}")

// Identity returns the identity permutation on n elements.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Reverse returns the reversing permutation ⟨n-1,…,0⟩, the unique
// permutation with exactly one left-to-right maximum relative to identity.
func Reverse(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// Random returns a uniformly random permutation of n elements drawn from r.
func Random(n int, r *rand.Rand) Perm {
	return Perm(r.Perm(n))
}

// RandomInto fills buf (length must be ≥ n) with a uniformly random
// permutation of n elements, consuming r exactly like Random — the two
// produce identical permutations from identical generator states (pinned
// by tests) — but without allocating. Bulk machine builders carve many
// permutations out of one backing array this way, shedding the dominant
// construction allocation at large p.
func RandomInto(n int, r *rand.Rand, buf []int) Perm {
	m := buf[:n]
	// The inside-out Fisher–Yates of math/rand.(*Rand).Perm, verbatim.
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return Perm(m)
}

// RandomList returns a list of k independent uniformly random permutations
// of n elements.
func RandomList(k, n int, r *rand.Rand) List {
	l := make(List, k)
	for i := range l {
		l[i] = Random(n, r)
	}
	return l
}

// Check verifies that p is a permutation of {0,…,len(p)-1}.
func Check(p Perm) error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("%w: element %d at index %d out of range", ErrNotPermutation, v, i)
		}
		if seen[v] {
			return fmt.Errorf("%w: element %d repeated", ErrNotPermutation, v)
		}
		seen[v] = true
	}
	return nil
}

// Len returns the number of elements n the permutation acts on.
func (p Perm) Len() int { return len(p) }

// Clone returns a deep copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Inverse returns p⁻¹, i.e. the permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// Compose returns p∘q, the permutation mapping i to p[q[i]] (apply q first,
// then p), matching the paper's σ⁻¹∘π usage.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: Compose of permutations with different lengths")
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Apply returns π(i).
func (p Perm) Apply(i int) int { return p[i] }

// IsIdentity reports whether p is the identity permutation.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// Rank returns the lexicographic rank of p among all permutations of its
// length (0-based). It is valid only for small n (n ≤ 20) since the rank of
// longer permutations overflows int64-sized factorials.
func (p Perm) Rank() int64 {
	n := len(p)
	var rank int64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * factorial(n-1-i)
	}
	return rank
}

// Unrank is the inverse of Rank: it returns the permutation of n elements
// with the given lexicographic rank.
func Unrank(n int, rank int64) Perm {
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	p := make(Perm, 0, n)
	for i := n - 1; i >= 0; i-- {
		f := factorial(i)
		idx := int(rank / f)
		rank %= f
		p = append(p, avail[idx])
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return p
}

func factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// LRM returns the number of left-to-right maxima of p: elements p[j]
// greater than every predecessor (Knuth vol. 3; paper Section 4).
func LRM(p Perm) int {
	count := 0
	best := -1
	for _, v := range p {
		if v > best {
			best = v
			count++
		}
	}
	return count
}

// DLRM returns the number of d-left-to-right maxima of p: elements p[j]
// preceded by fewer than d elements greater than p[j] (paper Section 4.2).
// For d = 1 this coincides with LRM.
func DLRM(p Perm, d int) int {
	n, _ := dlrmScan(p, d, make([]int, heapCap(len(p), d)), false)
	return n
}

// DLRMPositions returns the indices j of p that are d-left-to-right maxima,
// in increasing order. DLRM(p, d) == len(DLRMPositions(p, d)).
func DLRMPositions(p Perm, d int) []int {
	_, pos := dlrmScan(p, d, make([]int, heapCap(len(p), d)), true)
	return pos
}

// heapCap is the top-d heap size dlrmScan needs for n elements.
func heapCap(n, d int) int {
	if d < 0 {
		return 0
	}
	return min(d, n)
}

// dlrmScan counts the d-left-to-right maxima of p in O(n log d), keeping
// the d largest elements seen so far in the min-heap h (len ≥
// heapCap(len(p), d)). p[j] is a d-lrm iff it enters that top d: the first
// d elements always do, and a later one does iff it exceeds the heap's
// minimum, since then fewer than d predecessors are larger. With positions
// set it also returns the d-lrm indices in increasing order.
func dlrmScan(p []int, d int, h []int, positions bool) (int, []int) {
	n := len(p)
	if d <= 0 {
		return 0, nil
	}
	var pos []int
	if d >= n {
		if positions {
			pos = Identity(n)
		}
		return n, pos
	}
	h = h[:d]
	copy(h, p[:d])
	for i := d/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	if positions {
		pos = Identity(d)
	}
	count := d
	for j := d; j < n; j++ {
		if v := p[j]; v > h[0] {
			h[0] = v
			siftDown(h, 0)
			count++
			if positions {
				pos = append(pos, j)
			}
		}
	}
	return count, pos
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []int, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// List is an ordered list of permutations, all of the same length, used as
// processor schedules (the paper's Σ = ⟨π₀,…,π_{k-1}⟩).
type List []Perm

// CheckList verifies that every member is a permutation and that all have
// the same length. An empty list is valid.
func CheckList(l List) error {
	for i, p := range l {
		if err := Check(p); err != nil {
			return fmt.Errorf("perm: list element %d: %w", i, err)
		}
		if len(p) != len(l[0]) {
			return fmt.Errorf("perm: list element %d has length %d, want %d", i, len(p), len(l[0]))
		}
	}
	return nil
}

// N returns the length of the permutations in the list (0 for an empty
// list).
func (l List) N() int {
	if len(l) == 0 {
		return 0
	}
	return len(l[0])
}

// Clone deep-copies the list.
func (l List) Clone() List {
	out := make(List, len(l))
	for i, p := range l {
		out[i] = p.Clone()
	}
	return out
}

// ContWrt returns Cont(l, σ) = Σ_u lrm(σ⁻¹ ∘ π_u), the contention of the
// schedule list with respect to σ (paper Section 4). It is (1)-Cont(l, σ).
func ContWrt(l List, sigma Perm) int { return DContWrt(l, sigma, 1) }

// DContWrt returns (d)-Cont(l, σ) = Σ_u (d)-lrm(σ⁻¹ ∘ π_u).
func DContWrt(l List, sigma Perm, d int) int {
	return newEvaluator(l, d).wrt(sigma, math.MaxInt)
}

// Cont returns the contention Cont(l) = max_σ Cont(l, σ), computed by
// exhaustive enumeration of σ ∈ S_n. It is exponential in n; use
// ContEstimate for larger n.
func Cont(l List) int { return DCont(l, 1) }

// DCont returns (d)-Cont(l) = max_σ (d)-Cont(l, σ) by exhaustive
// enumeration of σ ∈ S_n. Exponential in n; use DContEstimate for larger n.
func DCont(l List, d int) int {
	return newEvaluator(l, d).maxOverSn(math.MaxInt)
}

// ContEstimate lower-bounds Cont(l) by maximizing over `samples` random σ
// plus the identity and reverse permutations. Exact maximization is
// exponential; random probing gives a useful lower estimate for reporting.
func ContEstimate(l List, samples int, r *rand.Rand) int {
	return DContEstimate(l, 1, samples, r)
}

// DContEstimate lower-bounds (d)-Cont(l) the same way ContEstimate bounds
// Cont(l).
func DContEstimate(l List, d, samples int, r *rand.Rand) int {
	return newEvaluator(l, d).estimate(samples, r, math.MaxInt)
}

// evaluator computes (d)-contention of one list with no allocation per σ:
// σ⁻¹, each σ⁻¹∘π_u, the top-d heap and sampled σ all live in buffers
// allocated once. Plain contention is the d = 1 case.
type evaluator struct {
	l     List
	d     int
	inv   []int // σ⁻¹
	comp  []int // σ⁻¹∘π_u
	heap  []int // top-d heap of dlrmScan
	sigma []int // σ drawn by estimate
}

func newEvaluator(l List, d int) *evaluator {
	n := l.N()
	buf := make([]int, 3*n+heapCap(n, d))
	return &evaluator{l: l, d: d, inv: buf[:n], comp: buf[n : 2*n], sigma: buf[2*n : 3*n], heap: buf[3*n:]}
}

// wrt returns (d)-Cont(l, σ), or as soon as a partial sum over the
// schedules reaches stop, that partial sum (some value ≥ stop).
func (e *evaluator) wrt(sigma Perm, stop int) int {
	for i, v := range sigma {
		e.inv[v] = i
	}
	total := 0
	for _, p := range e.l {
		for i, v := range p {
			e.comp[i] = e.inv[v]
		}
		n, _ := dlrmScan(e.comp, e.d, e.heap, false)
		if total += n; total >= stop {
			break
		}
	}
	return total
}

// maxOverSn maximizes wrt over all permutations of n elements using Heap's
// iterative enumeration. It returns early, with some value ≥ stop, once
// the maximum reaches stop.
func (e *evaluator) maxOverSn(stop int) int {
	n := e.l.N()
	if n == 0 {
		return 0
	}
	sigma := Identity(n)
	best := e.wrt(sigma, stop)
	c := make([]int, n)
	i := 0
	for i < n && best < stop {
		if c[i] < i {
			if i%2 == 0 {
				sigma[0], sigma[i] = sigma[i], sigma[0]
			} else {
				sigma[c[i]], sigma[i] = sigma[i], sigma[c[i]]
			}
			if v := e.wrt(sigma, stop); v > best {
				best = v
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return best
}

// estimate maximizes wrt over the identity, the reverse and `samples`
// random σ. Once the maximum reaches stop it returns some value ≥ stop,
// but only after drawing every remaining σ, so r advances exactly as in a
// full evaluation.
func (e *evaluator) estimate(samples int, r *rand.Rand, stop int) int {
	n := e.l.N()
	if n == 0 {
		return 0
	}
	sigma := Perm(e.sigma)
	for i := range sigma {
		sigma[i] = i
	}
	best := e.wrt(sigma, stop)
	// Then σ runs through the reverse (i = -1) and `samples` random draws.
	for i := range sigma {
		sigma[i] = n - 1 - i
	}
	for i := -1; i < samples; i++ {
		if i >= 0 {
			RandomInto(n, r, sigma)
		}
		if best >= stop {
			continue
		}
		if v := e.wrt(sigma, stop); v > best {
			best = v
		}
	}
	return best
}

// SortKey returns a canonical string key for p, usable for deduplication.
func (p Perm) SortKey() string {
	return fmt.Sprint([]int(p))
}

// Distinct reports the number of distinct permutations in l.
func (l List) Distinct() int {
	seen := make(map[string]struct{}, len(l))
	for _, p := range l {
		seen[p.SortKey()] = struct{}{}
	}
	return len(seen)
}

// AllPerms enumerates all n! permutations of n elements in lexicographic
// order. It panics for n > 10 to avoid accidental explosion.
func AllPerms(n int) []Perm {
	if n > 10 {
		panic("perm: AllPerms limited to n ≤ 10")
	}
	if n == 0 {
		return []Perm{{}}
	}
	var out []Perm
	p := Identity(n)
	for {
		out = append(out, p.Clone())
		if !nextPerm(p) {
			break
		}
	}
	return out
}

// nextPerm advances p to the next permutation in lexicographic order,
// returning false if p was the last one.
func nextPerm(p Perm) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}
