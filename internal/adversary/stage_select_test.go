package adversary

import (
	"math/rand"
	"sort"
	"testing"

	"doall/internal/sim"
)

// oracleSelect is the stage selection as the adversaries made it before
// stageSelect: every undone task with its count, sorted by count and then
// by id (ascending, or descending with desc), the first k protected.
func oracleSelect(tasks *sim.TaskLedger, count map[int]int, k int, desc bool) map[int]bool {
	type tc struct{ z, c int }
	cand := make([]tc, 0, tasks.Undone())
	for z := tasks.NextUndone(0); z >= 0; z = tasks.NextUndone(z + 1) {
		cand = append(cand, tc{z, count[z]})
	}
	sort.Slice(cand, func(x, y int) bool {
		if cand[x].c != cand[y].c {
			return cand[x].c < cand[y].c
		}
		if desc {
			return cand[x].z > cand[y].z
		}
		return cand[x].z < cand[y].z
	})
	if k > len(cand) {
		k = len(cand)
	}
	protected := make(map[int]bool, k)
	for _, c := range cand[:k] {
		protected[c.z] = true
	}
	return protected
}

// selectCase is one selection input: a ledger with u undone tasks, the
// per-task counts and k.
type selectCase struct {
	name  string
	tasks *sim.TaskLedger
	count map[int]int
	k     int
}

// randomLedger returns a ledger of t tasks with exactly u undone.
func randomLedger(r *rand.Rand, t, u int) *sim.TaskLedger {
	l := sim.NewTaskLedger(t)
	for _, z := range r.Perm(t)[:t-u] {
		l.MarkDone(z)
	}
	return l
}

// randomCounts gives each undone task a count in [1, maxCount] with
// probability frac (every undone task when frac ≥ 1). Small maxCount
// makes ties, which the id order must break.
func randomCounts(r *rand.Rand, l *sim.TaskLedger, frac float64, maxCount int) map[int]int {
	count := make(map[int]int)
	for z := l.NextUndone(0); z >= 0; z = l.NextUndone(z + 1) {
		if frac >= 1 || r.Float64() < frac {
			count[z] = 1 + r.Intn(maxCount)
		}
	}
	return count
}

// stageSelectCases covers k = 1, k inside and beyond the zero-count
// tasks (the sorted fallback), k ≥ u, every undone task counted, and the
// adversaries' own k at their smallest live ledgers, u = L+1 and u = 3L.
func stageSelectCases(r *rand.Rand) []selectCase {
	var cs []selectCase
	for trial := 0; trial < 40; trial++ {
		t := 1 + r.Intn(300)
		if trial%4 == 0 {
			t = 4096 + r.Intn(5000)
		}
		u := 1 + r.Intn(t)
		l := randomLedger(r, t, u)
		sparse := randomCounts(r, l, 0.2, 3)
		all := randomCounts(r, l, 1, 3)
		zeros := u - len(sparse)
		cs = append(cs,
			selectCase{"k=1", l, sparse, 1},
			selectCase{"k=1/all-counted", l, all, 1},
			selectCase{"k≤zeros", l, sparse, 1 + r.Intn(max(1, zeros))},
			selectCase{"k>zeros", l, sparse, min(u, zeros+1+r.Intn(len(sparse)+1))},
			selectCase{"k≥u", l, sparse, u + r.Intn(3)},
			selectCase{"all-counted", l, all, 1 + r.Intn(u)},
		)
	}
	for _, L := range []int{1, 2, 4, 8, 32} {
		for _, u := range []int{L + 1, 3 * L} {
			t := u + r.Intn(200)
			l := randomLedger(r, t, u)
			for _, frac := range []float64{0, 0.5, 1} {
				count := randomCounts(r, l, frac, 2)
				cs = append(cs,
					selectCase{"u=L+1|3L/online-k", l, count, max(1, u/(L+1))},
					selectCase{"u=L+1|3L/det-k", l, count, max(1, u/(3*L))},
				)
			}
		}
	}
	return cs
}

// TestStageSelectMatchesSort checks stageSelect against the sort-based
// oracle in both tie orders, reusing one selector across every case as
// the adversaries reuse theirs across stages.
func TestStageSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, desc := range []bool{false, true} {
		var s stageSelect
		for i, c := range stageSelectCases(r) {
			s.begin(c.tasks.Len())
			for z, n := range c.count {
				for j := 0; j < n; j++ {
					s.add(z)
				}
			}
			s.pick(c.tasks, c.k, desc)
			want := oracleSelect(c.tasks, c.count, c.k, desc)
			if s.n != len(want) {
				t.Fatalf("case %d %s desc=%v: |J_s| = %d, want %d", i, c.name, desc, s.n, len(want))
			}
			got := 0
			for z, in := range s.in {
				if in {
					got++
					if !want[z] {
						t.Fatalf("case %d %s desc=%v (u=%d k=%d): task %d protected, oracle leaves it out",
							i, c.name, desc, c.tasks.Undone(), c.k, z)
					}
				}
			}
			if got != len(want) {
				t.Fatalf("case %d %s desc=%v: %d tasks protected, want %d", i, c.name, desc, got, len(want))
			}
		}
	}
}
