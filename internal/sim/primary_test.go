package sim

import (
	"reflect"
	"testing"
)

// scripted performs, at its k-th step, task script[k] (NoTask for none),
// broadcasts nothing, and halts after its last entry.
type scripted struct{ script []int }

func (m *scripted) Step(now int64, inbox []Delivery) StepResult {
	z := m.script[0]
	m.script = m.script[1:]
	r := StepResult{Halt: len(m.script) == 0}
	if z != NoTask {
		r.Perform(z)
	}
	return r
}

func (m *scripted) KnowsAllDone() bool { return len(m.script) == 0 }

// TestRepeatedPerformancesWithinTick checks how the engine classifies
// repeated performances, sequentially and at shards 2 and 3, against
// RunLegacy. A performance is primary iff no earlier time unit performed
// the task: processors 0 and 1 both perform task 0 in the first unit and
// processor 2 performs it in the second; tasks 2 and 3 also go to several
// processors in one unit, and task 1, first performed in the first unit,
// again in the second, after another task's first performance in that
// unit.
func TestRepeatedPerformancesWithinTick(t *testing.T) {
	const x = NoTask
	scripts := [][]int{
		{0, 2, 3, 3},
		{0, 1, 3, 4},
		{x, 0, 3, 4},
		{1, 2, 4, x},
	}
	const tasks = 5
	run := func(engine func(Config, []Machine, Adversary) (*Result, error), shards int) *Result {
		ms := make([]Machine, len(scripts))
		for i, s := range scripts {
			ms[i] = &scripted{script: append([]int(nil), s...)}
		}
		res, err := engine(Config{P: len(ms), T: tasks, Shards: shards}, ms, &batchFair{d: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(RunLegacy, 1)
	if want.PrimaryExecutions != 9 || want.SecondaryExecutions != 5 {
		t.Fatalf("RunLegacy counted %d primary and %d secondary performances, want 9 and 5",
			want.PrimaryExecutions, want.SecondaryExecutions)
	}
	for _, shards := range []int{1, 2, 3} {
		e := NewEngine()
		got := run(e.Run, shards)
		e.Close()
		// Every unit steps at least three processors, so a sharded run
		// takes the parallel tick throughout.
		if ticks := e.PhaseProfile().Ticks; shards > 1 && ticks != int64(len(scripts[0])) || shards == 1 && ticks != 0 {
			t.Fatalf("shards %d: %d parallel ticks", shards, ticks)
		}
		if got.PrimaryExecutions != want.PrimaryExecutions || got.SecondaryExecutions != want.SecondaryExecutions ||
			got.TaskExecutions != want.TaskExecutions || !reflect.DeepEqual(got.FirstDoneAt, want.FirstDoneAt) {
			t.Errorf("shards %d: primary %d, secondary %d, executions %d, FirstDoneAt %v; RunLegacy %d, %d, %d, %v",
				shards, got.PrimaryExecutions, got.SecondaryExecutions, got.TaskExecutions, got.FirstDoneAt,
				want.PrimaryExecutions, want.SecondaryExecutions, want.TaskExecutions, want.FirstDoneAt)
		}
	}
}
