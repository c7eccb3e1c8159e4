// Package harness holds the end-to-end tests that drive internal/scenario
// from outside: the E1–E10 experiment tables, the engine-equivalence grid
// (sim.Run against sim.RunLegacy), the sweep runner and table rendering.
// The directory contains tests only; the code they exercise lives in
// internal/scenario.
package harness

import (
	"strings"
	"testing"

	"doall/internal/scenario"
)

var allAlgos = []string{scenario.AlgoAllToAll, scenario.AlgoObliDo, scenario.AlgoDA, scenario.AlgoPaRan1, scenario.AlgoPaRan2, scenario.AlgoPaDet}

func TestBuildMachinesAllAlgos(t *testing.T) {
	for _, algo := range allAlgos {
		ms, err := scenario.Scenario{Algorithm: algo, P: 4, T: 8, D: 2, Seed: 1}.Machines()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(ms) != 4 {
			t.Fatalf("%s: %d machines, want 4", algo, len(ms))
		}
	}
	if _, err := (scenario.Scenario{Algorithm: "nope", P: 1, T: 1}).Machines(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBuildAdversaryAll(t *testing.T) {
	for _, a := range []string{scenario.AdvFair, scenario.AdvRandom, scenario.AdvStageDet, scenario.AdvStageOnline} {
		adv, err := scenario.Scenario{Adversary: a, P: 2, T: 4, D: 3}.BuildAdversary()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if adv.D() != 3 {
			t.Fatalf("%s: D = %d, want 3", a, adv.D())
		}
	}
	if _, err := (scenario.Scenario{Adversary: "nope"}).BuildAdversary(); err == nil {
		t.Fatal("unknown adversary accepted")
	}
}

func TestExecuteEveryAlgoSolves(t *testing.T) {
	for _, algo := range allAlgos {
		res, err := scenario.Run(scenario.Scenario{Algorithm: algo, P: 4, T: 16, D: 2, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.Solved() {
			t.Fatalf("%s: not solved", algo)
		}
	}
}

func TestExecuteAvgDeterministicIsStable(t *testing.T) {
	// Deterministic algo with fair adversary and trial-varying seeds: DA's
	// permutation search depends on seed, so use AllToAll which is seed-free.
	avg, err := scenario.RunAvg(scenario.Scenario{Algorithm: scenario.AlgoAllToAll, P: 3, T: 9, D: 1, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Work != 27 {
		t.Fatalf("avg work = %v, want 27", avg.Work)
	}
	if avg.Trials != 3 {
		t.Fatalf("trials = %d", avg.Trials)
	}
}

func TestTableRendering(t *testing.T) {
	tb := scenario.NewTable("EX", "demo", "a", "bb")
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 100.0)
	tb.Note = "hello"

	s := tb.String()
	for _, want := range []string{"EX — demo", "a", "bb", "2.50", "100", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q in:\n%s", want, s)
		}
	}

	md := tb.Markdown()
	for _, want := range []string{"### EX — demo", "| a | bb |", "|---|---|", "| 1 | 2.50 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown() missing %q in:\n%s", want, md)
		}
	}
}

// TestTrimFloat checks the float formatting AddRow applies to every
// float64 cell.
func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.5:     "3.50",
		1234.56: "1235",
		0.25:    "0.25",
	}
	for in, want := range cases {
		tb := scenario.NewTable("EX", "demo", "v")
		tb.AddRow(in)
		if got := tb.Rows[0][0]; got != want {
			t.Errorf("AddRow(%v) cell = %q, want %q", in, got, want)
		}
	}
}
