// Package runtime executes Do-All step machines on real goroutines
// connected by delayed channels, complementing the deterministic simulator
// (internal/sim). Each processor runs in its own goroutine at its own
// speed; messages travel through a postman goroutine that holds each one
// for an adversary-chosen delay ≤ D. This is the substrate the examples
// use: the same sim.Machine implementations, but with genuine asynchrony
// and user-supplied task bodies.
//
// The runtime measures work in local steps and message complexity in
// point-to-point messages; because goroutine scheduling is nondeterministic,
// these are single-execution observations, not worst cases — use the
// simulator for reproducible experiments.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"doall/internal/sim"
)

// Config configures a runtime execution.
type Config struct {
	// P is the number of processors, T the number of tasks.
	P, T int
	// D is the maximum message delay, in Units.
	D int
	// Unit is the real-time length of one delay unit (default 200µs).
	// Processor step pacing is Unit as well, so D units ≈ D steps, mirroring
	// the model's "a processor takes at most d local steps during any
	// global period of duration d".
	Unit time.Duration
	// Seed drives message-delay randomness.
	Seed int64
	// Task, when non-nil, is invoked for every performed task id (possibly
	// multiple times per id — tasks must be idempotent, as in the model).
	Task func(id int)
	// Timeout aborts the run (default 30s).
	Timeout time.Duration
	// CrashAfter, when non-nil, maps pid → number of local steps after
	// which the processor crashes silently.
	CrashAfter map[int]int
	// ReviveAfter, when non-nil, maps pid → number of units of downtime
	// after which a processor crashed by CrashAfter restarts: it discards
	// everything delivered while it was down, rejoins its machine with
	// fresh initial knowledge (sim.RejoinMachine — the same rebase-on-
	// revive rule as the simulator), and resumes stepping. Pids without a
	// CrashAfter entry never crash, so their ReviveAfter entry is inert.
	ReviveAfter map[int]int
}

// Report summarizes one runtime execution.
type Report struct {
	// Solved reports whether every task was performed.
	Solved bool
	// Steps is the total number of local steps across processors; Work in
	// the model's sense (charging until solved) is bounded above by it.
	Steps int64
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// TaskExecutions counts task performances with multiplicity.
	TaskExecutions int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// PerProcSteps[i] is processor i's local step count.
	PerProcSteps []int64
	// Crashed[i] reports whether processor i was crashed by CrashAfter.
	Crashed []bool
	// Revived[i] reports whether processor i restarted after its crash
	// (ReviveAfter).
	Revived []bool
}

// ErrTimeout is returned when the run exceeds its Timeout before solving.
var ErrTimeout = errors.New("runtime: timed out before Do-All was solved")

// Run executes the machines until every live processor halts, then reports.
func Run(cfg Config, machines []sim.Machine) (*Report, error) {
	if len(machines) != cfg.P {
		return nil, fmt.Errorf("runtime: %d machines for P=%d", len(machines), cfg.P)
	}
	if cfg.P < 1 || cfg.T < 1 {
		return nil, fmt.Errorf("runtime: need P ≥ 1 and T ≥ 1")
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("runtime: need D ≥ 1")
	}
	unit := cfg.Unit
	if unit <= 0 {
		unit = 200 * time.Microsecond
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	r := &runner{
		cfg:      cfg,
		unit:     unit,
		post:     make(chan sim.Message, 16*cfg.P),
		inboxes:  make([]chan sim.Message, cfg.P),
		done:     make(chan struct{}),
		taskDone: make([]atomic.Bool, cfg.T),
		report: &Report{
			PerProcSteps: make([]int64, cfg.P),
			Crashed:      make([]bool, cfg.P),
			Revived:      make([]bool, cfg.P),
		},
	}
	for i := range r.inboxes {
		r.inboxes[i] = make(chan sim.Message, 64*cfg.P)
	}
	r.undone.Store(int64(cfg.T))

	start := time.Now()

	var postWG sync.WaitGroup
	postWG.Add(1)
	go func() {
		defer postWG.Done()
		r.postman()
	}()

	var procWG sync.WaitGroup
	for i := 0; i < cfg.P; i++ {
		procWG.Add(1)
		go func(pid int) {
			defer procWG.Done()
			r.processor(pid, machines[pid])
		}(i)
	}

	finished := make(chan struct{})
	go func() {
		procWG.Wait()
		close(finished)
	}()

	var err error
	select {
	case <-finished:
	case <-time.After(timeout):
		err = ErrTimeout
	}
	close(r.done)
	<-finished // processors observe done and exit even on timeout
	postWG.Wait()

	r.finishCounters()
	r.report.Elapsed = time.Since(start)
	r.report.Solved = r.undone.Load() == 0 && err == nil
	if !r.report.Solved && err == nil {
		err = fmt.Errorf("runtime: all processors halted with %d tasks undone", r.undone.Load())
	}
	return r.report, err
}

type runner struct {
	cfg      Config
	unit     time.Duration
	post     chan sim.Message
	inboxes  []chan sim.Message
	done     chan struct{}
	taskDone []atomic.Bool
	undone   atomic.Int64
	report   *Report
	steps    atomic.Int64
	msgs     atomic.Int64
	execs    atomic.Int64
}

// postman delays and delivers messages. One goroutine per in-flight
// message would also work; a single goroutine with timers keeps shutdown
// simple and leak-free.
func (r *runner) postman() {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case <-r.done:
			return
		case m := <-r.post:
			delay := time.Duration(1+rng.Intn(r.cfg.D)) * r.unit
			wg.Add(1)
			time.AfterFunc(delay, func() {
				defer wg.Done()
				select {
				case r.inboxes[m.To] <- m:
				case <-r.done:
				default: // receiver's inbox full or gone: drop (it halted)
				}
			})
		}
	}
}

func (r *runner) processor(pid int, m sim.Machine) {
	crashAt := -1
	if r.cfg.CrashAfter != nil {
		if v, ok := r.cfg.CrashAfter[pid]; ok {
			crashAt = v
		}
	}
	reviveAfter := -1
	if r.cfg.ReviveAfter != nil {
		if v, ok := r.cfg.ReviveAfter[pid]; ok && v >= 0 {
			reviveAfter = v
		}
	}
	var local int64
	ticker := time.NewTicker(r.unit)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			r.report.PerProcSteps[pid] = local
			return
		case <-ticker.C:
		}
		if crashAt >= 0 && local >= int64(crashAt) {
			r.report.Crashed[pid] = true
			if reviveAfter < 0 {
				r.report.PerProcSteps[pid] = local
				return
			}
			// Restartable crash: stay down for the configured number of
			// units, lose everything delivered in the meantime, rejoin the
			// machine with fresh knowledge, and resume. The crash fires
			// only once — a revived processor runs to completion.
			for k := 0; k < reviveAfter; k++ {
				select {
				case <-r.done:
					r.report.PerProcSteps[pid] = local
					return
				case <-ticker.C:
				}
			}
		discard:
			for {
				select {
				case <-r.inboxes[pid]:
				default:
					break discard
				}
			}
			sim.RejoinMachine(m)
			r.report.Revived[pid] = true
			crashAt = -1
			continue
		}

		// Drain the inbox without blocking: processing any number of
		// pending messages is part of this one step, per the model. Each
		// channel message is wrapped in its own delivery record; the
		// runtime is paced by wall-clock units, so the per-message
		// allocation is noise here (the simulator's engine pools these).
		var inbox []sim.Delivery
	drain:
		for {
			select {
			case msg := <-r.inboxes[pid]:
				mc := &sim.Multicast{From: msg.From, SentAt: msg.SentAt, Payload: msg.Payload}
				inbox = append(inbox, sim.Delivery{MC: mc, At: local})
			default:
				break drain
			}
		}

		res := m.Step(local, inbox)
		local++
		r.steps.Add(1)

		if z := res.PerformedTask(); z != sim.NoTask {
			r.execs.Add(1)
			if !r.taskDone[z].Swap(true) {
				r.undone.Add(-1)
			}
			if r.cfg.Task != nil {
				r.cfg.Task(z)
			}
		}
		if res.Broadcast != nil {
			for j := 0; j < r.cfg.P; j++ {
				if j == pid {
					continue
				}
				if !r.send(pid, j, local, res.Broadcast) {
					return
				}
			}
		}
		if res.Halt {
			r.report.PerProcSteps[pid] = local
			return
		}
	}
}

// send enqueues one point-to-point message, returning false if the run is
// shutting down (the caller should exit its loop).
func (r *runner) send(from, to int, local int64, payload any) bool {
	r.msgs.Add(1)
	select {
	case r.post <- sim.Message{From: from, To: to, SentAt: local, Payload: payload}:
		return true
	case <-r.done:
		r.report.PerProcSteps[from] = local
		return false
	}
}

// finishCounters copies atomics into the report after all processor
// goroutines have joined.
func (r *runner) finishCounters() {
	r.report.Steps = r.steps.Load()
	r.report.Messages = r.msgs.Load()
	r.report.TaskExecutions = r.execs.Load()
}
