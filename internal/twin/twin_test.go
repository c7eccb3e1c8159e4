package twin

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"doall/internal/scenario"
)

// benchFiles are the recorded grids the shipped TWIN_FIT.json is
// calibrated from, in calibration order.
var benchFiles = []string{"BENCH_0.json", "BENCH_1.json", "BENCH_2.json", "BENCH_3.json"}

func loadBenchSamples(t *testing.T) []Sample {
	t.Helper()
	var samples []Sample
	for _, name := range benchFiles {
		data, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rep scenario.SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ss := SamplesFromReport(rep)
		if len(ss) == 0 {
			t.Fatalf("%s: no calibration samples", name)
		}
		samples = append(samples, ss...)
	}
	return samples
}

// TestCalibrationCellsInsideOwnBands is the twin's core honesty
// property: every recorded BENCH cell is (a) inside the envelope of the
// model fit on it and (b) inside the stated confidence band of all
// three measures. The band construction covers every calibration
// residual by definition, so a failure here means the fit, the band, or
// the feature evaluation drifted.
func TestCalibrationCellsInsideOwnBands(t *testing.T) {
	samples := loadBenchSamples(t)
	tw, err := Calibrate(samples, benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		pred, err := tw.Predict(Query{Algo: s.Algo, Adversary: s.Family, P: s.P, T: s.T, D: s.D, Q: s.Q})
		if err != nil {
			t.Fatalf("%s/%s p=%d t=%d d=%d: %v", s.Algo, s.Family, s.P, s.T, s.D, err)
		}
		if !pred.InEnvelope {
			t.Errorf("%s/%s p=%d t=%d d=%d: calibration cell outside its own envelope", s.Algo, s.Family, s.P, s.T, s.D)
		}
		check := func(measure string, actual, lo, hi float64) {
			if actual < lo || actual > hi {
				t.Errorf("%s/%s p=%d t=%d d=%d: %s=%v outside band [%v, %v]",
					s.Algo, s.Family, s.P, s.T, s.D, measure, actual, lo, hi)
			}
		}
		check("work", s.Work, pred.WorkLo, pred.WorkHi)
		check("messages", s.Messages, pred.MessagesLo, pred.MessagesHi)
		check("solved_at", s.SolvedAt, pred.SolvedAtLo, pred.SolvedAtHi)
	}
}

// TestCalibrateDeterministic shuffles the calibration samples and
// requires byte-identical serialized fits: the property CI's
// recalibrate-and-diff check stands on.
func TestCalibrateDeterministic(t *testing.T) {
	samples := loadBenchSamples(t)
	tw1, err := Calibrate(samples, benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]Sample(nil), samples...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	tw2, err := Calibrate(shuffled, benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := tw1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := tw2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("sample order changed the serialized fit")
	}
}

// TestFitFileReproducible pins the checked-in TWIN_FIT.json: calibrating
// from the checked-in BENCH grids must re-derive it byte for byte, so
// the shipped fit can never silently drift from its claimed sources.
func TestFitFileReproducible(t *testing.T) {
	want, err := os.ReadFile("../../TWIN_FIT.json")
	if err != nil {
		t.Fatalf("TWIN_FIT.json: %v (regenerate with: go run ./cmd/doall calibrate)", err)
	}
	tw, err := Calibrate(loadBenchSamples(t), benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tw.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("TWIN_FIT.json does not match a fresh calibration from the BENCH grids; regenerate with: go run ./cmd/doall calibrate")
	}
	// And the shipped bytes must load back cleanly.
	loaded, err := Load(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Groups) != len(tw.Groups) {
		t.Fatalf("loaded %d groups, calibrated %d", len(loaded.Groups), len(tw.Groups))
	}
}

// TestGoodnessOfFitRecorded sanity-checks the recorded fit quality: the
// big fair-family groups have plenty of samples and near-perfect
// log-space fits (the measures ARE the bound shapes up to constants),
// and every model records positive N and a positive band.
func TestGoodnessOfFitRecorded(t *testing.T) {
	tw, err := Calibrate(loadBenchSamples(t), benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(tw.Groups) == 0 {
		t.Fatal("no groups")
	}
	for _, g := range tw.Groups {
		for _, m := range []struct {
			name string
			m    Model
		}{{"work", g.Work}, {"messages", g.Messages}, {"solved_at", g.SolvedAt}} {
			if m.m.N < 1 || m.m.Band <= 0 {
				t.Errorf("%s/%s %s: degenerate model n=%d band=%v", g.Algo, g.Family, m.name, m.m.N, m.m.Band)
			}
			if m.m.R2 > 1+1e-9 {
				t.Errorf("%s/%s %s: R² = %v > 1", g.Algo, g.Family, m.name, m.m.R2)
			}
		}
	}
	g := tw.Group("DA", "fair")
	if g == nil {
		t.Fatal("no DA/fair group")
	}
	if g.Work.N < 30 {
		t.Fatalf("DA/fair calibrated on %d cells, expected the full grid stack", g.Work.N)
	}
	if g.Work.R2 < 0.9 {
		t.Fatalf("DA/fair work R² = %v; the work curve should be near-log-linear in the bound features", g.Work.R2)
	}
}

// TestEnvelopeAndFallbackSignals exercises the coverage verdicts the
// serving layer keys its twin-vs-simulation decision on.
func TestEnvelopeAndFallbackSignals(t *testing.T) {
	tw, err := Calibrate(loadBenchSamples(t), benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	// Outside every recorded grid: p far beyond any BENCH axis.
	pred, err := tw.Predict(Query{Algo: "DA", P: 1 << 22, T: 256, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pred.InEnvelope {
		t.Fatal("p=2^22 should be outside the calibrated envelope")
	}
	if pred.BandRatio < 1 {
		t.Fatalf("band ratio %v < 1", pred.BandRatio)
	}
	// Unknown algorithm and unknown family are errors, not guesses.
	if _, err := tw.Predict(Query{Algo: "NoSuchAlgo", P: 16, T: 256, D: 1}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := tw.Predict(Query{Algo: "DA", Adversary: "nosuchfamily(x=1)", P: 16, T: 256, D: 1}); err == nil {
		t.Fatal("unknown adversary family should error")
	}
	// Degenerate shapes are rejected.
	if _, err := tw.Predict(Query{Algo: "DA", P: 0, T: 256, D: 1}); err == nil {
		t.Fatal("p=0 should error")
	}
}

// TestFamily pins the adversary-expression → family reduction.
func TestFamily(t *testing.T) {
	cases := map[string]string{
		"":                     "fair",
		"fair":                 "fair",
		"fair(delay=8)":        "fair",
		"crashing(crash=3@7)":  "crashing",
		" restarting(x=1) ":    "restarting",
		"slow-set(slow=9,d=4)": "slow-set",
	}
	for expr, want := range cases {
		if got := Family(expr); got != want {
			t.Errorf("Family(%q) = %q, want %q", expr, got, want)
		}
	}
}

// TestLoadRejectsBadFits pins the loader's validation.
func TestLoadRejectsBadFits(t *testing.T) {
	tw, err := Calibrate(loadBenchSamples(t), benchFiles)
	if err != nil {
		t.Fatal(err)
	}
	good, err := tw.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(good); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	for name, mutate := range map[string]func(*Twin){
		"wrong version": func(w *Twin) { w.Version = FitVersion + 1 },
		"no groups":     func(w *Twin) { w.Groups = nil },
		"bad coef arity": func(w *Twin) {
			w.Groups[0].Work.Coef = w.Groups[0].Work.Coef[:2]
		},
		"degenerate envelope": func(w *Twin) { w.Groups[0].Envelope.MinP = 0 },
	} {
		var mutant Twin
		if err := json.Unmarshal(good, &mutant); err != nil {
			t.Fatal(err)
		}
		mutate(&mutant)
		bad, err := json.Marshal(&mutant)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("%s: Load accepted a corrupt fit", name)
		}
	}
	if _, err := Load([]byte(`{"version":1,"groups":[],"junk":true}`)); err == nil {
		t.Error("unknown field should be rejected")
	}
}
