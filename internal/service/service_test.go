package service

import (
	"container/heap"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doall/internal/scenario"
)

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d cells)", id, st.State, st.CellsDone, st.CellsTotal)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testSweep() *scenario.SweepSpec {
	return &scenario.SweepSpec{
		Algos: []string{"PaRan1"}, Ps: []int{4, 8}, Ts: []int{16}, Ds: []int64{1, 2},
		BaseSeed: 3, Trials: 2,
	}
}

// stripCellNs zeroes the wall-clock column for value comparison.
func stripCellNs(cells []scenario.Cell) []scenario.Cell {
	out := make([]scenario.Cell, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].NsPerRun = 0
	}
	return out
}

func TestSweepJobRunsToCompletion(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "sweep" || st.CellsTotal != 4 {
		t.Fatalf("submit status: %+v", st)
	}
	st = waitState(t, s, st.ID)
	if st.State != JobDone || st.CellsDone != 4 || st.Err != "" {
		t.Fatalf("final status: %+v", st)
	}

	// The service's cells must equal a direct RunSweep of the same grid.
	got, done, err := s.Cells(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("cell %d not marked done", i)
		}
	}
	want := scenario.RunSweep(testSweep().Config())
	got, want = stripCellNs(got), stripCellNs(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d differs from direct sweep:\nservice: %+v\ndirect:  %+v", i, got[i], want[i])
		}
	}
}

func TestScenarioJobRunsToCompletion(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc := scenario.Scenario{Algorithm: "DA", P: 4, T: 16, D: 1, Seed: 5, Trials: 2}
	st, err := s.Submit(Job{Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "scenario" || st.CellsTotal != 1 {
		t.Fatalf("submit status: %+v", st)
	}
	st = waitState(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("final status: %+v", st)
	}
	cells, _, err := s.Cells(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Err != "" || cells[0].Work <= 0 {
		t.Fatalf("cell: %+v", cells[0])
	}
}

// The tentpole property: kill the daemon after k of n cells, restart it
// on the same checkpoint, and the final result set is identical to an
// uninterrupted run (NsPerRun, a wall-clock observation, excepted).
func TestCheckpointResumeByteIdentical(t *testing.T) {
	// Uninterrupted reference run, no persistence.
	ref, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, ref, st.ID)
	want, _, err := ref.Cells(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Interrupted run: stop the daemon after the first completed cell.
	wal := filepath.Join(t.TempDir(), "doalld.wal")
	s1, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s1.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := s1.Status(st1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.CellsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same checkpoint: the job resumes, already partially
	// done, and completes without re-running checkpointed cells.
	s2, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.Status(st1.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if st2.CellsDone < 1 {
		t.Fatalf("restart forgot checkpointed cells: %+v", st2)
	}
	resumedFrom := st2.CellsDone
	st2 = waitState(t, s2, st1.ID)
	if st2.State != JobDone || st2.CellsDone != st2.CellsTotal {
		t.Fatalf("resumed job: %+v", st2)
	}
	got, _, err := s2.Cells(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotN, wantN := stripCellNs(got), stripCellNs(want)
	for i := range wantN {
		if gotN[i] != wantN[i] {
			t.Fatalf("cell %d differs after resume (resumed from %d/%d):\nresumed:       %+v\nuninterrupted: %+v",
				i, resumedFrom, st2.CellsTotal, gotN[i], wantN[i])
		}
	}
}

// A second restart with everything already checkpointed must finalize
// the job without any workers touching it.
func TestCheckpointResumeFullyDone(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "doalld.wal")
	s1, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st.ID)
	s1.Close()

	s2, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2 := waitState(t, s2, st.ID)
	if st2.State != JobDone || st2.CellsDone != 4 {
		t.Fatalf("terminal job not restored as done: %+v", st2)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, err := New(Config{Workers: -1}) // no fleet: jobs never start
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}
	st, err = s.Cancel(st.ID)
	if err != nil || st.State != JobCanceled {
		t.Fatalf("cancel: %+v, %v", st, err)
	}
	// Canceling again is a no-op, not an error.
	st, err = s.Cancel(st.ID)
	if err != nil || st.State != JobCanceled {
		t.Fatalf("re-cancel: %+v, %v", st, err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id: %v", err)
	}
}

func TestJobTimeout(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A job that cannot finish inside its budget: a million trials.
	sc := scenario.Scenario{Algorithm: "PaRan1", P: 8, T: 64, D: 1, Seed: 1, Trials: 1_000_000}
	st, err := s.Submit(Job{Scenario: &sc, Timeout: Duration(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, s, st.ID)
	if st.State != JobFailed || !strings.Contains(st.Err, "timeout") {
		t.Fatalf("timed-out job: %+v", st)
	}
	// The aborted cell must not have been recorded as done.
	if st.CellsDone != 0 {
		t.Fatalf("aborted cell recorded: %+v", st)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, err := New(Config{Workers: -1, QueueLimit: 1, MaxCells: 4, MaxMem: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big := testSweep()
	big.Ps = []int{4, 8, 16} // 6 cells > MaxCells 4
	if _, err := s.Submit(Job{Sweep: big}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("oversized grid admitted: %v", err)
	}

	if _, err := s.Submit(Job{Sweep: testSweep()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{Sweep: testSweep()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue overflow admitted: %v", err)
	}

	if n := s.Drain(); n != 1 {
		t.Fatalf("Drain reported %d open jobs, want 1", n)
	}
	if _, err := s.Submit(Job{Sweep: testSweep()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []Job{
		{}, // neither scenario nor sweep
		{Scenario: &scenario.Scenario{Algorithm: "DA", P: 4, T: 16}, Sweep: testSweep()}, // both
		{Scenario: &scenario.Scenario{Algorithm: "NoSuchAlgo", P: 4, T: 16}},
		{Scenario: &scenario.Scenario{Algorithm: "DA", P: 4, T: 16, Backend: scenario.BackendRuntime}},
		{Sweep: &scenario.SweepSpec{Algos: []string{"DA"}}}, // empty axes
		{Scenario: &scenario.Scenario{Algorithm: "DA", P: 4, T: 16}, Timeout: Duration(-time.Second)},
		{Scenario: &scenario.Scenario{Algorithm: "DA", P: 4, T: 16, Trials: -3}},
		{Sweep: &scenario.SweepSpec{Algos: []string{"DA"}, Ps: []int{4}, Ts: []int{16}, Ds: []int64{2}, Trials: -3}},
	}
	for i, job := range cases {
		if _, err := s.Submit(job); err == nil {
			t.Errorf("case %d: invalid job admitted: %+v", i, job)
		}
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	var q jobQueue
	push := func(seq int64, prio int) {
		heap.Push(&q, &task{job: Job{Priority: prio}, seq: seq, state: JobQueued})
	}
	push(1, 0)
	push(2, 5)
	push(3, 0)
	push(4, 5)
	var got []int64
	for len(q) > 0 {
		got = append(got, heap.Pop(&q).(*task).seq)
	}
	want := []int64{2, 4, 1, 3} // priority desc, FIFO within a level
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestParseJobForms(t *testing.T) {
	// Envelope with sweep + knobs.
	j, err := ParseJob([]byte(`{"sweep":{"algos":["DA"],"p":[4],"t":[16],"d":[1]},"priority":3,"timeout":"30s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.Kind() != "sweep" || j.Priority != 3 || time.Duration(j.Timeout) != 30*time.Second {
		t.Fatalf("envelope job: %+v", j)
	}
	// Bare scenario.
	j, err = ParseJob([]byte(`{"algorithm":"DA","p":4,"t":16,"d":1}`))
	if err != nil || j.Kind() != "scenario" {
		t.Fatalf("bare scenario: %+v, %v", j, err)
	}
	// Bare sweep.
	j, err = ParseJob([]byte(`{"algos":["DA"],"p":[4],"t":[16],"d":[1]}`))
	if err != nil || j.Kind() != "sweep" {
		t.Fatalf("bare sweep: %+v, %v", j, err)
	}
	// Garbage forms.
	for _, doc := range []string{
		`{"sweep":{"algos":["DA"]},"unknown_knob":1}`,
		`{"nonsense":true}`,
		`not json`,
		`{"sweep":{"algos":["DA"],"p":[4],"t":[16],"d":[1],"typo":1}}`,
	} {
		if _, err := ParseJob([]byte(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(b) != `"1m30s"` {
		t.Fatalf("marshal: %s, %v", b, err)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2m"`), &d); err != nil || time.Duration(d) != 2*time.Minute {
		t.Fatalf("unmarshal string: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000000`), &d); err != nil || time.Duration(d) != time.Second {
		t.Fatalf("unmarshal ns: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Fatal("bool accepted as duration")
	}
}

func TestWALTornLines(t *testing.T) {
	dir := t.TempDir()

	// A torn final line is the crash the log exists to survive.
	tornTail := filepath.Join(dir, "tail.wal")
	writeFile(t, tornTail, `{"op":"job","seq":1,"job":{"id":"j000001","sweep":{"algos":["DA"],"p":[4],"t":[16],"d":[1]}}}
{"op":"cell","id":"j000001","i":0,"cell":{"algo":"DA","p":4,"t":16,"d":1,"seed":9,"trials":1,"work":1,"messages":1,"solved_at":1,"ns_per_run":1}}
{"op":"state","id":"j0000`)
	recs, err := replayWAL(tornTail)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail: %d records, want 2", len(recs))
	}

	// A torn line mid-log followed by valid records is corruption.
	tornMid := filepath.Join(dir, "mid.wal")
	writeFile(t, tornMid, `{"op":"job","seq":1,"job":{"id":"j000001"}}
{"op":"cell","id":"j00
{"op":"state","id":"j000001","state":"done"}`)
	if _, err := replayWAL(tornMid); err == nil {
		t.Fatal("mid-log tear replayed silently")
	}

	// Missing file = empty history.
	recs, err = replayWAL(filepath.Join(dir, "absent.wal"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v, %v", recs, err)
	}
}

func TestResumeAfterTornFinalLine(t *testing.T) {
	// End-to-end: append a torn fragment to a live checkpoint, restart,
	// and the job still completes correctly.
	wal := filepath.Join(t.TempDir(), "doalld.wal")
	s1, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	waitFirstCell(t, s1, st.ID)
	s1.Close()
	appendFile(t, wal, `{"op":"cell","id":"`+st.ID+`","i":`)

	s2, err := New(Config{Workers: 1, Checkpoint: wal})
	if err != nil {
		t.Fatalf("restart after torn tail: %v", err)
	}
	defer s2.Close()
	st2 := waitState(t, s2, st.ID)
	if st2.State != JobDone || st2.CellsDone != 4 {
		t.Fatalf("resumed job: %+v", st2)
	}
}

func waitFirstCell(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsDone >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscribeStreamSeesAllCells(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(Job{Sweep: testSweep()})
	if err != nil {
		t.Fatal(err)
	}
	tk, sub, ch, err := s.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer s.unsubscribe(tk, sub)

	seen := map[int]bool{}
	deadline := time.After(30 * time.Second)
	for {
		batch, state, _, _, total := s.streamSnapshot(tk, len(seen))
		for _, rc := range batch {
			if seen[rc.I] {
				t.Fatalf("cell %d delivered twice", rc.I)
			}
			seen[rc.I] = true
		}
		if state.Terminal() {
			if len(seen) != total {
				t.Fatalf("stream saw %d/%d cells", len(seen), total)
			}
			return
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatal("stream stalled")
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := writeFileErr(path, content, false); err != nil {
		t.Fatal(err)
	}
}

func appendFile(t *testing.T, path, content string) {
	t.Helper()
	if err := writeFileErr(path, content, true); err != nil {
		t.Fatal(err)
	}
}

func writeFileErr(path, content string, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(content); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
