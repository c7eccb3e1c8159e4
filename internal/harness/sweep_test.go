package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"doall/internal/scenario"
)

func sweepGrid() scenario.SweepConfig {
	return scenario.SweepConfig{
		Algos:    []string{scenario.AlgoAllToAll, scenario.AlgoDA, scenario.AlgoPaRan1},
		Ps:       []int{4, 8},
		Ts:       []int{16, 32},
		Ds:       []int64{1, 4},
		BaseSeed: 7,
		Trials:   2,
	}
}

func stripTimings(cells []scenario.Cell) []scenario.Cell {
	out := append([]scenario.Cell(nil), cells...)
	for i := range out {
		out[i].NsPerRun = 0
	}
	return out
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := sweepGrid()
	cfg.Workers = 1
	serial := stripTimings(scenario.RunSweep(cfg))
	for _, workers := range []int{2, 7} {
		cfg.Workers = workers
		got := stripTimings(scenario.RunSweep(cfg))
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d cell %d = %+v, want %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestSweepCellsSolveAndCoverGrid(t *testing.T) {
	cfg := sweepGrid()
	cells := scenario.RunSweep(cfg)
	want := len(cfg.Algos) * len(cfg.Ps) * len(cfg.Ts) * len(cfg.Ds)
	if len(cells) != want {
		t.Fatalf("sweep produced %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Err != "" {
			t.Fatalf("cell %+v failed: %s", c, c.Err)
		}
		if c.Work <= 0 || c.SolvedAt < 0 {
			t.Fatalf("cell %+v has implausible measures", c)
		}
	}
}

func TestCellSeedDependsOnlyOnCoordinates(t *testing.T) {
	a := scenario.CellSeed(1, scenario.AlgoDA, 8, 64, 4)
	if a != scenario.CellSeed(1, scenario.AlgoDA, 8, 64, 4) {
		t.Fatal("CellSeed not deterministic")
	}
	if a <= 0 {
		t.Fatalf("CellSeed = %d, want positive", a)
	}
	distinct := map[int64]bool{a: true}
	for _, other := range []int64{
		scenario.CellSeed(2, scenario.AlgoDA, 8, 64, 4),
		scenario.CellSeed(1, scenario.AlgoPaDet, 8, 64, 4),
		scenario.CellSeed(1, scenario.AlgoDA, 16, 64, 4),
		scenario.CellSeed(1, scenario.AlgoDA, 8, 128, 4),
		scenario.CellSeed(1, scenario.AlgoDA, 8, 64, 8),
	} {
		if distinct[other] {
			t.Fatalf("seed collision: %d", other)
		}
		distinct[other] = true
	}
}

func TestSweepReportJSONRoundTrip(t *testing.T) {
	cfg := sweepGrid()
	cfg.Algos = []string{scenario.AlgoAllToAll}
	cfg.Ps, cfg.Ts, cfg.Ds = []int{4}, []int{8}, []int64{1}
	rep := scenario.NewSweepReport(cfg)
	if rep.Engine != "multicast-wheel-grouped" {
		t.Fatalf("engine tag = %q", rep.Engine)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"algo": "AllToAll"`) {
		t.Fatalf("JSON missing cell fields:\n%s", buf.String())
	}
	var back scenario.SweepReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 1 || back.Cells[0].Work != rep.Cells[0].Work {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
