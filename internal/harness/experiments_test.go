package harness

import (
	"strconv"
	"strings"
	"testing"

	"doall/internal/scenario"
)

// runQuick runs an experiment at Quick scale and does basic shape checks.
func runQuick(t *testing.T, fn func(scenario.Scale) (*scenario.Table, error)) *scenario.Table {
	t.Helper()
	tb, err := fn(scenario.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: empty table", tb.ID)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("%s: ragged row %v", tb.ID, row)
		}
	}
	return tb
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tb := runQuick(t, scenario.E1LowerBoundDet)
	// Forced work / Ω must be bounded: not vanishing, not exploding.
	for _, row := range tb.Rows {
		ratio := cellFloat(t, row[4])
		if ratio < 0.05 || ratio > 50 {
			t.Errorf("E1 d=%s algo=%s: W/Ω = %v out of sane range", row[0], row[1], ratio)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tb := runQuick(t, scenario.E2LowerBoundRand)
	for _, row := range tb.Rows {
		ratio := cellFloat(t, row[4])
		if ratio < 0.05 || ratio > 50 {
			t.Errorf("E2 d=%s algo=%s: W/Ω = %v out of range", row[0], row[1], ratio)
		}
	}
}

func TestE3LemmaHolds(t *testing.T) {
	tb := runQuick(t, scenario.E3Contention)
	for _, row := range tb.Rows {
		cont := cellFloat(t, row[1])
		bound := cellFloat(t, row[2])
		primary := cellFloat(t, row[3])
		if cont > bound {
			t.Errorf("E3 n=%s: Cont(Σ)=%v exceeds 3nH_n=%v (Lemma 4.1)", row[0], cont, bound)
		}
		if primary > cont {
			t.Errorf("E3 n=%s: primary=%v exceeds Cont(Σ)=%v (Lemma 4.2)", row[0], primary, cont)
		}
	}
}

func TestE4BoundHolds(t *testing.T) {
	tb := runQuick(t, scenario.E4DContention)
	for _, row := range tb.Rows {
		if r := cellFloat(t, row[3]); r > 1 {
			t.Errorf("E4 d=%s: estimate exceeds the Theorem 4.4 bound (ratio %v)", row[0], r)
		}
	}
}

func TestE5WorkGrowsWithD(t *testing.T) {
	tb := runQuick(t, scenario.E5DAWork)
	// Within each q group, work must not shrink drastically as d grows,
	// and must stay ≤ ~p·t ceiling times small constant.
	for _, row := range tb.Rows {
		w := cellFloat(t, row[2])
		pt := cellFloat(t, row[6])
		if w > 3*pt {
			t.Errorf("E5 d=%s q=%s: W=%v far above p·t=%v", row[0], row[1], w, pt)
		}
	}
	// First and last d for q=2: work at d=max must exceed work at d=1.
	var first, last float64
	var seen bool
	for _, row := range tb.Rows {
		if row[1] == "2" {
			if !seen {
				first = cellFloat(t, row[2])
				seen = true
			}
			last = cellFloat(t, row[2])
		}
	}
	if last <= first {
		t.Errorf("E5: DA work did not grow with d (first %v, last %v)", first, last)
	}
}

func TestE6SubquadraticAtSmallD(t *testing.T) {
	tb := runQuick(t, scenario.E6PaRanWork)
	for _, row := range tb.Rows {
		d := cellFloat(t, row[0])
		w := cellFloat(t, row[2])
		pt := cellFloat(t, row[6])
		if d == 1 && w >= pt {
			t.Errorf("E6 %s: work %v at d=1 not subquadratic (p·t=%v)", row[1], w, pt)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tb := runQuick(t, scenario.E7PaDetWork)
	for _, row := range tb.Rows {
		if r := cellFloat(t, row[4]); r > 20 {
			t.Errorf("E7 d=%s: W/UB = %v implausibly high", row[0], r)
		}
	}
}

func TestE8QuadraticAtLargeD(t *testing.T) {
	tb := runQuick(t, scenario.E8LargeDelay)
	for _, row := range tb.Rows {
		frac := cellFloat(t, row[4])
		if frac < 0.4 || frac > 3 {
			t.Errorf("E8 %s d=%s: W/(p·t) = %v, want Θ(1)", row[0], row[1], frac)
		}
	}
}

func TestE9MessageCeiling(t *testing.T) {
	tb := runQuick(t, scenario.E9Messages)
	for _, row := range tb.Rows {
		ratio := cellFloat(t, row[3])
		ceiling := cellFloat(t, row[4])
		if ratio > ceiling {
			t.Errorf("E9 %s: M/W = %v exceeds p-1 = %v", row[0], ratio, ceiling)
		}
	}
}

func TestE10HasWinners(t *testing.T) {
	tb := runQuick(t, scenario.E10Crossover)
	for _, row := range tb.Rows {
		w := row[5]
		if w != "DA" && w != "PaDet" && w != "PaRan1" {
			t.Errorf("E10: unknown winner %q", w)
		}
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tables, err := scenario.AllExperiments(scenario.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Fatalf("got %d tables, want 10", len(tables))
	}
	ids := map[string]bool{}
	for _, tb := range tables {
		ids[tb.ID] = true
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"} {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}
