package perm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17} {
		p := Identity(n)
		if len(p) != n {
			t.Fatalf("Identity(%d) has length %d", n, len(p))
		}
		if err := Check(p); err != nil {
			t.Fatalf("Identity(%d) invalid: %v", n, err)
		}
		if !p.IsIdentity() {
			t.Fatalf("Identity(%d) not recognized as identity", n)
		}
	}
}

func TestReverse(t *testing.T) {
	p := Reverse(4)
	want := Perm{3, 2, 1, 0}
	if !p.Equal(want) {
		t.Fatalf("Reverse(4) = %v, want %v", p, want)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsBadSlices(t *testing.T) {
	cases := []Perm{
		{0, 0},
		{1, 2},
		{-1, 0},
		{0, 1, 3},
	}
	for _, p := range cases {
		if err := Check(p); err == nil {
			t.Errorf("Check(%v) accepted a non-permutation", p)
		}
	}
}

func TestInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := Random(10, r)
		inv := p.Inverse()
		if !p.Compose(inv).IsIdentity() {
			t.Fatalf("p∘p⁻¹ ≠ id for p=%v", p)
		}
		if !inv.Compose(p).IsIdentity() {
			t.Fatalf("p⁻¹∘p ≠ id for p=%v", p)
		}
	}
}

func TestComposeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		a, b, c := Random(8, r), Random(8, r), Random(8, r)
		left := a.Compose(b).Compose(c)
		right := a.Compose(b.Compose(c))
		if !left.Equal(right) {
			t.Fatalf("composition not associative: %v vs %v", left, right)
		}
	}
}

func TestComposeIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := Random(9, r)
	id := Identity(9)
	if !p.Compose(id).Equal(p) || !id.Compose(p).Equal(p) {
		t.Fatal("identity is not neutral for composition")
	}
}

func TestComposeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compose with mismatched lengths did not panic")
		}
	}()
	Identity(3).Compose(Identity(4))
}

func TestRankUnrankRoundTrip(t *testing.T) {
	for n := 1; n <= 6; n++ {
		perms := AllPerms(n)
		for want, p := range perms {
			if got := p.Rank(); got != int64(want) {
				t.Fatalf("Rank(%v) = %d, want %d", p, got, want)
			}
			if got := Unrank(n, int64(want)); !got.Equal(p) {
				t.Fatalf("Unrank(%d,%d) = %v, want %v", n, want, got, p)
			}
		}
	}
}

func TestLRMKnownValues(t *testing.T) {
	cases := []struct {
		p    Perm
		want int
	}{
		{Perm{}, 0},
		{Perm{0}, 1},
		{Perm{0, 1, 2, 3}, 4}, // identity: every element is an lrm
		{Perm{3, 2, 1, 0}, 1}, // reverse: only first
		{Perm{1, 0, 3, 2}, 2}, // 1 and 3
		{Perm{2, 0, 1, 4, 3}, 2} /* 2 and 4 */}
	for _, c := range cases {
		if got := LRM(c.p); got != c.want {
			t.Errorf("LRM(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestDLRMEqualsLRMAtD1(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		p := Random(12, r)
		if DLRM(p, 1) != LRM(p) {
			t.Fatalf("DLRM(p,1) ≠ LRM(p) for p=%v", p)
		}
	}
}

func TestDLRMMonotoneInD(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		p := Random(10, r)
		prev := 0
		for d := 1; d <= 12; d++ {
			cur := DLRM(p, d)
			if cur < prev {
				t.Fatalf("DLRM not monotone in d for p=%v: d=%d gives %d < %d", p, d, cur, prev)
			}
			prev = cur
		}
		if prev != len(p) {
			t.Fatalf("DLRM(p, d≥n) = %d, want n=%d", prev, len(p))
		}
	}
}

func TestDLRMKnownValues(t *testing.T) {
	// p = ⟨3,2,1,0⟩: element 3 has 0 greater predecessors; 2 has one (3);
	// 1 has two; 0 has three. So (2)-lrm counts 3 and 2 → 2.
	p := Perm{3, 2, 1, 0}
	if got := DLRM(p, 2); got != 2 {
		t.Fatalf("DLRM(%v, 2) = %d, want 2", p, got)
	}
	if got := DLRM(p, 4); got != 4 {
		t.Fatalf("DLRM(%v, 4) = %d, want 4", p, got)
	}
	if got := DLRM(p, 0); got != 0 {
		t.Fatalf("DLRM(p,0) = %d, want 0", got)
	}
}

func TestDLRMPositionsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		p := Random(9, r)
		for d := 1; d <= 5; d++ {
			pos := DLRMPositions(p, d)
			if len(pos) != DLRM(p, d) {
				t.Fatalf("positions/count mismatch for p=%v d=%d", p, d)
			}
			for j := 1; j < len(pos); j++ {
				if pos[j] <= pos[j-1] {
					t.Fatalf("positions not increasing: %v", pos)
				}
			}
		}
	}
}

// Property: lrm of the first d elements are always d-lrm's (paper Lemma 4.3
// observation (1): for i = 1..d, π(i) is a d-lrm).
func TestFirstDElementsAreDLRM(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64, dRaw uint8) bool {
		_ = seed
		p := Random(10, r)
		d := int(dRaw%9) + 1
		pos := DLRMPositions(p, d)
		if len(pos) < min(d, len(p)) {
			return false
		}
		for j := 0; j < min(d, len(p)); j++ {
			if pos[j] != j {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContWrtIdentityExtremes(t *testing.T) {
	// Single schedule = identity: every element is an lrm wrt identity → n.
	n := 6
	l := List{Identity(n)}
	if got := ContWrt(l, Identity(n)); got != n {
		t.Fatalf("ContWrt(⟨id⟩, id) = %d, want %d", got, n)
	}
	// Single schedule = reverse: one lrm wrt identity.
	l = List{Reverse(n)}
	if got := ContWrt(l, Identity(n)); got != 1 {
		t.Fatalf("ContWrt(⟨rev⟩, id) = %d, want 1", got)
	}
}

func TestContBounds(t *testing.T) {
	// n ≤ Cont(Σ) ≤ n² for any list of n permutations of [n] (paper §4).
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		n := 4
		l := RandomList(n, n, r)
		c := Cont(l)
		if c < n || c > n*n {
			t.Fatalf("Cont out of range [n, n²]: %d for n=%d", c, n)
		}
	}
}

func TestContOfIdenticalListIsMax(t *testing.T) {
	// If all schedules equal σ then Cont(Σ, σ) = n·n (every element an lrm
	// of identity composition), so Cont(Σ) = n².
	n := 5
	l := make(List, n)
	for i := range l {
		l[i] = Identity(n)
	}
	if got := Cont(l); got != n*n {
		t.Fatalf("Cont(identical list) = %d, want %d", got, n*n)
	}
}

func TestDContWrtAtLargeDIsN2(t *testing.T) {
	n := 4
	r := rand.New(rand.NewSource(9))
	l := RandomList(n, n, r)
	if got := DCont(l, n); got != n*n {
		t.Fatalf("(n)-Cont = %d, want n² = %d", got, n*n)
	}
}

func TestDContMonotoneInD(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	l := RandomList(4, 5, r)
	prev := 0
	for d := 1; d <= 6; d++ {
		cur := DCont(l, d)
		if cur < prev {
			t.Fatalf("DCont not monotone: d=%d gives %d < %d", d, cur, prev)
		}
		prev = cur
	}
}

func TestContEstimateNeverExceedsExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		l := RandomList(3, 5, r)
		exact := Cont(l)
		est := ContEstimate(l, 100, r)
		if est > exact {
			t.Fatalf("estimate %d exceeds exact %d", est, exact)
		}
	}
}

func TestDistinct(t *testing.T) {
	l := List{Identity(3), Identity(3), Reverse(3)}
	if got := l.Distinct(); got != 2 {
		t.Fatalf("Distinct = %d, want 2", got)
	}
}

func TestAllPermsCountAndValidity(t *testing.T) {
	want := 1
	for n := 1; n <= 6; n++ {
		want *= n
		perms := AllPerms(n)
		if len(perms) != want {
			t.Fatalf("AllPerms(%d) returned %d perms, want %d", n, len(perms), want)
		}
		seen := make(map[string]bool)
		for _, p := range perms {
			if err := Check(p); err != nil {
				t.Fatal(err)
			}
			k := p.SortKey()
			if seen[k] {
				t.Fatalf("duplicate permutation %v", p)
			}
			seen[k] = true
		}
	}
}

func TestCheckList(t *testing.T) {
	if err := CheckList(List{Identity(3), Reverse(3)}); err != nil {
		t.Fatal(err)
	}
	if err := CheckList(List{Identity(3), Identity(4)}); err == nil {
		t.Fatal("CheckList accepted mismatched lengths")
	}
	if err := CheckList(List{{0, 0, 1}}); err == nil {
		t.Fatal("CheckList accepted a non-permutation")
	}
	if err := CheckList(nil); err != nil {
		t.Fatalf("CheckList(nil) = %v, want nil", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Identity(4)
	q := p.Clone()
	q[0] = 3
	if p[0] != 0 {
		t.Fatal("Clone shares backing array")
	}
	l := List{Identity(3)}
	l2 := l.Clone()
	l2[0][0] = 2
	if l[0][0] != 0 {
		t.Fatal("List.Clone shares permutations")
	}
}

// Property-based: random permutations round-trip through inverse twice.
func TestQuickInverseInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		p := Random(n, r)
		return p.Inverse().Inverse().Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: lrm(σ⁻¹∘π) = 1 when π = σ reversed-composed... simpler
// invariant: lrm(σ⁻¹∘σ) = n (identity) for any σ.
func TestQuickSelfContention(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(nRaw uint8) bool {
		n := int(nRaw%15) + 1
		sigma := Random(n, r)
		return LRM(sigma.Inverse().Compose(sigma)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomIntoMatchesRandom pins the allocation-free permutation
// generator to math/rand's Perm: identical generator states must yield
// identical permutations (PaRan1's reproducibility depends on it).
func TestRandomIntoMatchesRandom(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for seed := int64(0); seed < 5; seed++ {
			want := Random(n, rand.New(rand.NewSource(seed)))
			buf := make([]int, n)
			got := RandomInto(n, rand.New(rand.NewSource(seed)), buf)
			if len(got) != len(want) {
				t.Fatalf("n=%d seed=%d: length %d vs %d", n, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: RandomInto diverges from Random at %d", n, seed, i)
				}
			}
		}
	}
}

// naiveDLRM is the reference d-lrm count: for each element, rescan the
// prefix for greater predecessors (the definition of Section 4.2,
// O(n·d·log(n/d)) per permutation). naivePositions records their indices.
func naiveDLRM(p Perm, d int) int { return len(naivePositions(p, d)) }

func naivePositions(p Perm, d int) []int {
	if d <= 0 {
		return nil
	}
	var out []int
	for j, v := range p {
		greater := 0
		for i := 0; i < j && greater < d; i++ {
			if p[i] > v {
				greater++
			}
		}
		if greater < d {
			out = append(out, j)
		}
	}
	return out
}

// naiveDContWrt is the reference (d)-Cont(l, σ): compose σ⁻¹∘π_u with
// fresh allocations and count with naiveDLRM.
func naiveDContWrt(l List, sigma Perm, d int) int {
	inv := sigma.Inverse()
	total := 0
	for _, p := range l {
		total += naiveDLRM(inv.Compose(p), d)
	}
	return total
}

// TestDLRMMatchesReference checks the top-d heap count against the prefix
// rescan on random permutations, n ∈ [0, 300] and d ∈ [-1, n+2], covering
// the edges d ≤ 0 (no d-lrm) and d ≥ n (every element).
func TestDLRMMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(301)
		p := Random(n, r)
		for _, d := range []int{-1, 0, 1, 2, r.Intn(n + 3), n - 1, n, n + 1, n + 2} {
			want := naivePositions(p, d)
			if got := DLRM(p, d); got != len(want) {
				t.Fatalf("n=%d d=%d: DLRM = %d, reference %d", n, d, got, len(want))
			}
			got := DLRMPositions(p, d)
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d: %d positions, reference %d", n, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%d: position %d is %d, reference %d", n, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestContWrtMatchesReference checks ContWrt and DContWrt against the
// allocate-and-rescan reference on random lists and σ.
func TestContWrtMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(301)
		l := RandomList(1+r.Intn(6), n, r)
		sigma := Random(n, r)
		if got, want := ContWrt(l, sigma), naiveDContWrt(l, sigma, 1); got != want {
			t.Fatalf("n=%d: ContWrt = %d, reference %d", n, got, want)
		}
		for _, d := range []int{-1, 0, 1, r.Intn(n + 3), n, n + 2} {
			if got, want := DContWrt(l, sigma, d), naiveDContWrt(l, sigma, d); got != want {
				t.Fatalf("n=%d d=%d: DContWrt = %d, reference %d", n, d, got, want)
			}
		}
	}
}

// TestEvaluatorAllocatesNothingPerSigma pins the search's inner loop to
// zero allocations: evaluating one σ, and a whole 64-sample estimate of a
// candidate, reuse the evaluator's buffers.
func TestEvaluatorAllocatesNothingPerSigma(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	const n, d = 128, 8
	e := newEvaluator(RandomList(n, n, r), d)
	sigma := Random(n, r)
	if a := testing.AllocsPerRun(50, func() { e.wrt(sigma, math.MaxInt) }); a != 0 {
		t.Fatalf("(d)-Cont(l, σ) allocates %v per σ, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { e.estimate(64, r, math.MaxInt) }); a != 0 {
		t.Fatalf("64-sample estimate allocates %v per candidate, want 0", a)
	}
}
