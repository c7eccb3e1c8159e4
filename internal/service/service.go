// Package service is the Do-All service plane: a persistent daemon core
// that owns a bounded priority queue of Scenario and sweep jobs, runs
// them cell by cell on a shared fleet of reusable simulation engines,
// streams per-cell results as they complete, and survives restarts by
// write-ahead checkpointing every completed cell. doall serve wraps it
// in a process with an HTTP JSON API; doall ctl is the thin client that
// shares job state with the daemon through that API.
//
// The resume guarantee: per-cell seeds are derived from cell coordinates
// alone (scenario.CellSeed), so a daemon killed after k of n cells and
// restarted completes the remaining n−k cells to a result set identical
// to an uninterrupted run — checkpointed cells are restored verbatim,
// re-run cells reproduce exactly (wall-clock NsPerRun excepted).
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"doall/internal/scenario"
	"doall/internal/sim"
	"doall/internal/twin"
)

// Sentinel errors, mapped onto HTTP status codes by the server layer.
var (
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("service: no such job")
	// ErrDraining: the daemon is shutting down or drained and accepts no
	// new jobs.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
	// ErrQueueFull: the bounded job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrOverBudget: admission control rejected the job's estimated
	// memory or grid size.
	ErrOverBudget = errors.New("service: job exceeds the daemon's admission budget")
)

// Config tunes a Service. The zero value is serviceable: GOMAXPROCS
// workers, a 64-job queue, no persistence, no admission budget.
type Config struct {
	// Workers is the engine fleet size — the number of cells simulated
	// concurrently, each on its own reusable sim.Engine. 0 means
	// GOMAXPROCS; -1 means no fleet at all (jobs queue but never run:
	// drain-only tooling and deterministic tests).
	Workers int
	// QueueLimit bounds the jobs admitted but not yet finished (queued +
	// running). Default 64.
	QueueLimit int
	// MaxCells bounds one job's grid size at admission. Default 1<<20.
	MaxCells int
	// Checkpoint is the write-ahead checkpoint log path; "" disables
	// persistence (jobs die with the process).
	Checkpoint string
	// Fsync forces every checkpoint record to stable storage (durable
	// against machine crashes, at a per-cell fsync cost). Off, the log
	// is flushed per record and survives process death but not power
	// loss.
	Fsync bool
	// MaxMem, when > 0, pre-flights every sweep job against
	// scenario.EstimateSweepBytes at the daemon's worker count and
	// rejects jobs whose largest shape cannot fit — the same fail-fast
	// contract as doall sweep -maxmem, applied at admission.
	MaxMem int64
	// DefaultTimeout is the wall-clock budget applied to jobs that
	// declare none. 0 means unlimited.
	DefaultTimeout time.Duration
	// Shards is the daemon-wide default intra-run parallelism applied to
	// cells whose spec does not set its own (scenario.Scenario.Shards):
	// 0/1 sequential, -1 (scenario.ShardsAuto) resolved per cell from
	// GOMAXPROCS and the cell's p. Shards multiply with Workers — every
	// busy engine fans its tick across that many goroutines — so size
	// Workers × Shards against the machine, not each knob alone. Results
	// are shard-invariant; only throughput changes.
	Shards int
	// Twin is the calibrated analytical twin behind POST /v1/predict:
	// in-envelope queries are answered from its models without touching
	// an engine. nil means every predict query falls back to one real
	// bounded simulation.
	Twin *twin.Twin
	// TwinMaxBandRatio caps the confidence-band Hi/Lo ratio the daemon
	// will serve analytically; wider predictions fall back to simulation.
	// 0 means the default (8).
	TwinMaxBandRatio float64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 1 << 20
	}
	return c
}

// task is one job's runtime state. All fields are guarded by the
// service mutex; cells execute outside the lock.
type task struct {
	job  Job
	seq  int64
	seen time.Time

	state JobState
	err   string

	specs  []scenario.Scenario
	trials int
	theory bool

	cells     []scenario.Cell
	done      []bool
	order     []int // completion order, drives result streaming
	ndone     int
	nextClaim int
	inflight  int

	ctx      context.Context
	cancel   context.CancelFunc
	deadline *time.Timer

	subs    map[int]chan struct{}
	nextSub int

	submittedMS, startedMS, finishedMS int64
}

// Service is the daemon core. One Service owns the queue, the job store,
// the checkpoint log, the metrics registry, and the worker fleet.
type Service struct {
	cfg     Config
	wal     *wal
	metrics *metrics

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*task
	order    []*task // submission order (for List)
	queue    jobQueue
	active   []*task
	nextSeq  int64
	draining bool
	closing  bool
	closedCh chan struct{}
	wg       sync.WaitGroup

	// The predict plane's dedicated fallback engine, created lazily on
	// the first out-of-envelope query and serialized by its own mutex so
	// predict traffic never contends with the worker fleet.
	predictMu   sync.Mutex
	predictEng  *sim.Engine
	predictSims atomic.Int64
}

// New builds a Service: replays the checkpoint log (if any), reopens it
// for appending, and starts the worker fleet. Non-terminal replayed jobs
// are re-queued in their original submission order and resume from their
// last checkpointed cell.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		metrics:  newMetrics(),
		jobs:     make(map[string]*task),
		nextSeq:  1,
		closedCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Checkpoint != "" {
		recs, err := replayWAL(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		s.applyReplay(recs)
		w, err := openWAL(cfg.Checkpoint, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		s.wal = w
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// applyReplay folds checkpoint records back into the job store.
func (s *Service) applyReplay(recs []walRecord) {
	for _, rec := range recs {
		switch rec.Op {
		case "job":
			if rec.Job == nil || rec.Job.ID == "" || (rec.Job.Scenario == nil && rec.Job.Sweep == nil) {
				continue
			}
			t := s.newTask(*rec.Job, rec.Seq)
			s.jobs[t.job.ID] = t
			s.order = append(s.order, t)
			if rec.Seq >= s.nextSeq {
				s.nextSeq = rec.Seq + 1
			}
		case "cell":
			t := s.jobs[rec.ID]
			if t == nil || rec.Cell == nil || rec.Index < 0 || rec.Index >= len(t.cells) || t.done[rec.Index] {
				continue
			}
			t.cells[rec.Index] = *rec.Cell
			t.done[rec.Index] = true
			t.order = append(t.order, rec.Index)
			t.ndone++
		case "state":
			if t := s.jobs[rec.ID]; t != nil {
				t.state = rec.State
				t.err = rec.Err
			}
		}
	}
	// Anything not terminal resumes: back to the queue, original order.
	for _, t := range s.order {
		if !t.state.Terminal() {
			t.state = JobQueued
			heap.Push(&s.queue, t)
		}
	}
}

func (s *Service) newTask(job Job, seq int64) *task {
	specs, trials, theory := job.plan()
	t := &task{
		job: job, seq: seq,
		state:  JobQueued,
		specs:  specs,
		trials: trials,
		theory: theory,
		cells:  make([]scenario.Cell, len(specs)),
		done:   make([]bool, len(specs)),
		subs:   make(map[int]chan struct{}),
	}
	return t
}

// Submit validates, admission-checks, and enqueues a job, returning its
// assigned status. The job starts when the fleet reaches it.
func (s *Service) Submit(job Job) (JobStatus, error) {
	if err := job.validate(); err != nil {
		return JobStatus{}, err
	}
	if job.Sweep != nil {
		if n := job.Sweep.Cells(); n > s.cfg.MaxCells {
			return JobStatus{}, fmt.Errorf("%w: %d cells > max %d", ErrOverBudget, n, s.cfg.MaxCells)
		}
		if s.cfg.MaxMem > 0 {
			cfg := job.Sweep.Config()
			cfg.Workers = s.cfg.Workers
			if est := scenario.EstimateSweepBytes(cfg); est > s.cfg.MaxMem {
				return JobStatus{}, fmt.Errorf("%w: estimated %d bytes > budget %d (largest shape × %d workers)",
					ErrOverBudget, est, s.cfg.MaxMem, s.cfg.Workers)
			}
		}
	}

	s.mu.Lock()
	if s.draining || s.closing {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	open := 0
	for _, t := range s.order {
		if !t.state.Terminal() {
			open++
		}
	}
	if open >= s.cfg.QueueLimit {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %d jobs open (limit %d)", ErrQueueFull, open, s.cfg.QueueLimit)
	}
	seq := s.nextSeq
	s.nextSeq++
	job.ID = fmt.Sprintf("j%06d", seq)
	t := s.newTask(job, seq)
	t.submittedMS = time.Now().UnixMilli()
	s.jobs[job.ID] = t
	s.order = append(s.order, t)
	heap.Push(&s.queue, t)
	s.walAppend(walRecord{Op: "job", Seq: seq, Job: &job})
	s.metrics.jobsSubmitted.Add(1)
	st := s.statusLocked(t)
	s.cond.Broadcast()
	s.mu.Unlock()
	return st, nil
}

// Status returns a job's progress.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.jobs[id]
	if t == nil {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(t), nil
}

// List returns every known job's status in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, t := range s.order {
		out = append(out, s.statusLocked(t))
	}
	return out
}

// Cells returns a copy of a job's cell results in grid (spec) order,
// with done flags; undone entries are zero Cells.
func (s *Service) Cells(id string) ([]scenario.Cell, []bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.jobs[id]
	if t == nil {
		return nil, nil, ErrNotFound
	}
	cells := make([]scenario.Cell, len(t.cells))
	done := make([]bool, len(t.done))
	copy(cells, t.cells)
	copy(done, t.done)
	return cells, done, nil
}

// Cancel moves a queued or running job to JobCanceled; in-flight cells
// abort at their next trial boundary and are not recorded. Canceling a
// terminal job is a no-op that returns its status.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.jobs[id]
	if t == nil {
		return JobStatus{}, ErrNotFound
	}
	if !t.state.Terminal() {
		s.finalizeLocked(t, JobCanceled, "canceled by submitter")
		s.cond.Broadcast()
	}
	return s.statusLocked(t), nil
}

// Drain stops admission: subsequent Submits fail with ErrDraining while
// queued and running jobs keep executing. It returns the number of jobs
// still open, so clients can poll List/ActiveJobs for the drain to
// finish.
func (s *Service) Drain() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	return s.activeLocked()
}

// Draining reports whether admission is stopped.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closing
}

// ActiveJobs returns the number of non-terminal jobs.
func (s *Service) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeLocked()
}

func (s *Service) activeLocked() int {
	n := 0
	for _, t := range s.order {
		if !t.state.Terminal() {
			n++
		}
	}
	return n
}

// Close shuts the service down gracefully: admission stops, workers
// finish (and checkpoint) the cells they are executing, result streams
// are released, and the checkpoint log is flushed and closed. Queued
// and unfinished jobs stay non-terminal in the log and resume on the
// next New with the same checkpoint path.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.draining = true
	close(s.closedCh)
	s.cond.Broadcast()
	s.mu.Unlock()

	s.wg.Wait()

	// In-flight predict fallbacks hold predictMu; waiting for it here
	// lets them finish before their engine's shard workers are released.
	s.predictMu.Lock()
	if s.predictEng != nil {
		s.predictEng.Close()
		s.predictEng = nil
	}
	s.predictMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.order {
		if t.deadline != nil {
			t.deadline.Stop()
		}
	}
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

func (s *Service) statusLocked(t *task) JobStatus {
	return JobStatus{
		ID:          t.job.ID,
		Kind:        t.job.Kind(),
		State:       t.state,
		Priority:    t.job.Priority,
		CellsTotal:  len(t.cells),
		CellsDone:   t.ndone,
		Err:         t.err,
		SubmittedMS: t.submittedMS,
		StartedMS:   t.startedMS,
		FinishedMS:  t.finishedMS,
	}
}

func (s *Service) walAppend(rec walRecord) {
	if s.wal == nil {
		return
	}
	if err := s.wal.append(rec); err != nil {
		// A checkpoint write failure degrades durability, not service:
		// jobs keep running, but a restart may repeat lost work.
		log.Printf("doalld: checkpoint append failed: %v", err)
	}
}

// worker is one member of the engine fleet: it claims cells, runs them
// unobserved on its private reusable engine, folds each cell's run counts
// into the metrics, and records the results.
func (s *Service) worker() {
	defer s.wg.Done()
	eng := sim.NewEngine()
	// Sharded cells park shard-worker goroutines on the engine; without
	// the Close a drained fleet would strand them until process exit.
	defer eng.Close()
	for {
		t, i, ok := s.nextCell()
		if !ok {
			return
		}
		spec := t.specs[i]
		if spec.Shards == 0 {
			// The daemon-wide default applies only where the job did not
			// choose: a spec's explicit shard count (including 1) wins.
			spec.Shards = s.cfg.Shards
		}
		shards := int64(scenario.ResolveShards(spec.Shards, spec.P))
		s.metrics.enginesInflight.Add(1)
		s.metrics.shardsInflight.Add(shards)
		prof := eng.PhaseProfile()
		cell, tally := scenario.RunCellOn(t.ctx, eng, spec, t.trials, t.theory)
		// The engine's phase profile is monotone across runs; the cell's
		// contribution is the delta around it.
		after := eng.PhaseProfile()
		s.metrics.simDone(tally, sim.TickPhaseProfile{
			A1:    after.A1 - prof.A1,
			A2:    after.A2 - prof.A2,
			B:     after.B - prof.B,
			Ticks: after.Ticks - prof.Ticks,
		})
		s.metrics.shardsInflight.Add(-shards)
		s.metrics.enginesInflight.Add(-1)
		s.finishCell(t, i, cell)
	}
}

// nextCell blocks until a cell is claimable or the service closes. It
// prefers cells of already-running jobs (in priority order) and promotes
// the next queued job only when nothing is claimable — work-conserving
// priority-FIFO.
func (s *Service) nextCell() (*task, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil, 0, false
		}
		for _, t := range s.active {
			if t.state != JobRunning {
				continue
			}
			for t.nextClaim < len(t.cells) && t.done[t.nextClaim] {
				t.nextClaim++ // skip checkpoint-restored cells
			}
			if t.nextClaim < len(t.cells) {
				i := t.nextClaim
				t.nextClaim++
				t.inflight++
				return t, i, true
			}
		}
		if len(s.queue) > 0 {
			t := heap.Pop(&s.queue).(*task)
			if t.state != JobQueued {
				continue // canceled while queued; lazily discarded
			}
			s.startLocked(t)
			continue
		}
		s.cond.Wait()
	}
}

// startLocked transitions a queued job to running: its cancel context,
// wall-clock deadline, and start timestamp come alive here.
func (s *Service) startLocked(t *task) {
	t.state = JobRunning
	t.startedMS = time.Now().UnixMilli()
	t.ctx, t.cancel = context.WithCancel(context.Background())
	timeout := time.Duration(t.job.Timeout)
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		t.deadline = time.AfterFunc(timeout, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !t.state.Terminal() {
				s.finalizeLocked(t, JobFailed, fmt.Sprintf("job timeout %s exceeded", timeout))
				s.cond.Broadcast()
			}
		})
	}
	s.active = append(s.active, t)
	s.notifyLocked(t)
	if t.ndone == len(t.cells) {
		// A fully-checkpointed job resumed with nothing left to run.
		s.finalizeLocked(t, JobDone, "")
	}
}

// finishCell records one completed cell — checkpoint first, then the
// in-memory store, then subscribers. Cells finishing after their job
// went terminal (cancel, timeout) are discarded: their results were cut
// short by the job context and must not pollute the checkpoint.
func (s *Service) finishCell(t *task, i int, cell scenario.Cell) {
	s.mu.Lock()
	t.inflight--
	if t.state == JobRunning {
		s.walAppend(walRecord{Op: "cell", ID: t.job.ID, Index: i, Cell: &cell})
		t.cells[i] = cell
		t.done[i] = true
		t.order = append(t.order, i)
		t.ndone++
		s.metrics.cellDone(cell.Err != "")
		s.notifyLocked(t)
		if t.ndone == len(t.cells) {
			s.finalizeLocked(t, JobDone, "")
		}
	}
	if t.state.Terminal() && t.inflight == 0 {
		s.removeActiveLocked(t)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finalizeLocked moves a job to a terminal state exactly once: records
// it in the checkpoint, stops its timers, cancels its context, and wakes
// every subscriber.
func (s *Service) finalizeLocked(t *task, state JobState, msg string) {
	if t.state.Terminal() {
		return
	}
	t.state = state
	t.err = msg
	t.finishedMS = time.Now().UnixMilli()
	if state == JobDone {
		t.err = ""
	}
	if t.deadline != nil {
		t.deadline.Stop()
	}
	if t.cancel != nil {
		t.cancel()
	}
	s.walAppend(walRecord{Op: "state", ID: t.job.ID, State: state, Err: t.err})
	s.notifyLocked(t)
	if t.inflight == 0 {
		s.removeActiveLocked(t)
	}
}

func (s *Service) removeActiveLocked(t *task) {
	for i, a := range s.active {
		if a == t {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// notifyLocked pokes every subscriber of t (non-blocking: each channel
// has capacity 1 and a pending poke is as good as two).
func (s *Service) notifyLocked(t *task) {
	for _, ch := range t.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a result-stream subscriber for a job and returns
// its wake channel.
func (s *Service) subscribe(id string) (*task, int, chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.jobs[id]
	if t == nil {
		return nil, 0, nil, ErrNotFound
	}
	ch := make(chan struct{}, 1)
	sub := t.nextSub
	t.nextSub++
	t.subs[sub] = ch
	return t, sub, ch, nil
}

func (s *Service) unsubscribe(t *task, sub int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(t.subs, sub)
}
