//go:build long

package scenario

// The long suite: re-measures that need minutes or gigabytes, kept out
// of the default `go test ./...` run. Run it with
//
//	go test -tags long -run TestBench3CheapCellReproducesSharded -v ./internal/scenario

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"doall/internal/sim"
)

// TestBench3CheapCellReproducesSharded replays BENCH_3's cheapest cell —
// DA under fair at p=65536, t=2^20 — on the staged parallel tick engine
// (4 shards) and requires the recorded work/messages/solved_at to
// reproduce exactly, mirroring TestBench2CellsReproduceSharded at the
// sharding-era flagship shape. One cell keeps the re-measure affordable;
// the full grid is re-recorded only when a PR moves performance.
func TestBench3CheapCellReproducesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures a p=65536 shape")
	}
	data, err := os.ReadFile("../../BENCH_3.json")
	if err != nil {
		t.Skipf("BENCH_3.json not present: %v", err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	checked := 0
	eng := sim.NewEngine()
	defer eng.Close()
	for _, c := range rep.Cells {
		if c.Algo != AlgoDA || c.Adversary != "fair" || c.T != 1048576 {
			continue
		}
		sc := Scenario{Algorithm: c.Algo, Adversary: c.Adversary, P: c.P, T: c.T, D: c.D, Seed: c.Seed, Shards: 4}
		got, _ := RunCellOn(context.Background(), eng, sc, c.Trials, false)
		if got.Err != "" {
			t.Fatalf("cell %s/%s t=%d failed: %s", c.Algo, c.Adversary, c.T, got.Err)
		}
		if got.Work != c.Work || got.Messages != c.Messages || got.SolvedAt != c.SolvedAt {
			t.Errorf("cell %s/%s t=%d diverged from BENCH_3.json: work %v→%v, messages %v→%v, solved_at %v→%v",
				c.Algo, c.Adversary, c.T, c.Work, got.Work, c.Messages, got.Messages, c.SolvedAt, got.SolvedAt)
		}
		checked++
	}
	if checked != 1 {
		t.Fatalf("checked %d cells, want 1 (grid layout changed?)", checked)
	}
}
