package sim

import "fmt"

// RunLegacy executes machines under the adversary using the original
// per-message engine: every broadcast is materialized as p-1 separately
// queued Message values pushed through a delivery min-heap, and the
// adversary's Delay is consulted once per recipient. It is kept verbatim
// (modulo the shared step/schedule contracts) as the reference
// implementation for the multicast-native engine (Run): both must produce
// identical Results for every algorithm × adversary pair. New code should
// call Run; RunLegacy exists for equivalence tests and benchmarks.
func RunLegacy(cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	maxSteps, err := validateRun(cfg, machines, adv)
	if err != nil {
		return nil, err
	}

	s := &legacyState{
		cfg:      cfg,
		machines: machines,
		adv:      adv,
		inbox:    make([][]Delivery, cfg.P),
		pending:  newDelayQueue(),
		crashed:  make([]bool, cfg.P),
		halted:   make([]bool, cfg.P),
		tasks:    NewTaskLedger(cfg.T),
		res: &Result{
			SolvedAt:    -1,
			PerProcWork: make([]int64, cfg.P),
			FirstDoneAt: make([]int64, cfg.T),
		},
	}
	s.omitter, _ = adv.(Omitter)
	for z := range s.res.FirstDoneAt {
		s.res.FirstDoneAt[z] = -1
	}

	for now := int64(0); now < maxSteps; now++ {
		if s.allStopped() {
			break
		}
		s.tick(now)
		if s.res.Solved && cfg.StopAtSolved {
			break
		}
	}
	if !s.res.Solved {
		return s.res, ErrStepCap
	}
	return s.res, nil
}

// validateRun checks a run configuration; shared by both engines.
func validateRun(cfg Config, machines []Machine, adv Adversary) (int64, error) {
	if len(machines) != cfg.P {
		return 0, fmt.Errorf("sim: %d machines for P=%d", len(machines), cfg.P)
	}
	if cfg.P < 1 || cfg.T < 1 {
		return 0, fmt.Errorf("sim: need P ≥ 1 and T ≥ 1, got P=%d T=%d", cfg.P, cfg.T)
	}
	if adv.D() < 1 {
		return 0, fmt.Errorf("sim: adversary delay bound %d < 1", adv.D())
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10_000_000
	}
	return maxSteps, nil
}

type legacyState struct {
	cfg      Config
	machines []Machine
	adv      Adversary
	omitter  Omitter // adv, when it may omit deliveries
	inbox    [][]Delivery
	pending  *delayQueue
	crashed  []bool
	halted   []bool
	tasks    *TaskLedger
	res      *Result
	dec      Decision
}

func (s *legacyState) allStopped() bool {
	for i := range s.machines {
		if !s.crashed[i] && !s.halted[i] {
			return false
		}
	}
	return true
}

// pendingInbox implements View.Inbox.
func (s *legacyState) pendingInbox(i int) []Delivery { return s.inbox[i] }

// tick advances one global time unit.
func (s *legacyState) tick(now int64) {
	// 1. Deliver messages due now (or earlier, defensively). Each queued
	// Message is wrapped in its own single-recipient Multicast record —
	// the per-message allocations are exactly what makes this engine the
	// slow reference.
	for _, m := range s.pending.popDue(now) {
		if !s.crashed[m.To] && !s.halted[m.To] {
			mc := &Multicast{From: m.From, SentAt: m.SentAt, Payload: m.Payload}
			s.inbox[m.To] = append(s.inbox[m.To], Delivery{MC: mc, At: m.DeliverAt})
		}
	}

	// 2. Ask the adversary for this unit's schedule.
	v := &View{
		Now:      now,
		P:        s.cfg.P,
		T:        s.cfg.T,
		Tasks:    s.tasks, // shared; adversaries must not mutate
		Machines: s.machines,
		Crashed:  s.crashed,
		Halted:   s.halted,
		InFlight: s.pending.len(),
		pending:  s,
	}
	s.dec.reset()
	dec := &s.dec
	s.adv.Schedule(v, dec)
	for _, i := range dec.Crash {
		if i >= 0 && i < s.cfg.P {
			if !s.crashed[i] {
				// Deliveries received but never consumed are lost with the
				// crash (matching the multicast engine), so a later revive
				// starts with an empty inbox.
				s.inbox[i] = nil
				s.res.Crashes++
			}
			s.crashed[i] = true
		}
	}
	for _, i := range dec.Revive {
		if i >= 0 && i < s.cfg.P && s.crashed[i] && !s.halted[i] {
			s.crashed[i] = false
			s.res.Revivals++
			RejoinMachine(s.machines[i])
		}
	}

	// 3. Execute the scheduled local steps.
	informed := false
	for _, i := range dec.Active {
		if i < 0 || i >= s.cfg.P || s.crashed[i] || s.halted[i] {
			continue
		}
		inbox := s.inbox[i]
		s.inbox[i] = nil
		r := s.machines[i].Step(now, inbox)

		s.res.TotalSteps++
		s.res.PerProcWork[i]++
		if !s.res.Solved {
			s.res.Work++
		}

		if z := r.PerformedTask(); z != NoTask {
			if z < 0 || z >= s.cfg.T {
				panic(fmt.Sprintf("sim: machine %d performed out-of-range task %d", i, z))
			}
			s.res.TaskExecutions++
			if s.res.FirstDoneAt[z] == -1 || s.res.FirstDoneAt[z] == now {
				s.res.PrimaryExecutions++
			} else {
				s.res.SecondaryExecutions++
			}
			if s.tasks.MarkDone(z) {
				s.res.FirstDoneAt[z] = now
			}
		}

		if r.Broadcast != nil {
			var wireSize int64
			if sz, ok := r.Broadcast.(Payload); ok {
				wireSize = int64(sz.WireSize())
			}
			if s.cfg.P > 1 {
				s.res.Multicasts++
			}
			for j := 0; j < s.cfg.P; j++ {
				if j == i {
					continue
				}
				delay := s.adv.Delay(i, j, now)
				if delay < 1 || delay > s.adv.D() {
					panic(fmt.Sprintf("sim: adversary delay %d outside [1,%d]", delay, s.adv.D()))
				}
				// An omitted copy is charged as sent but never queued (the
				// delay was still drawn, keeping stateful delay streams
				// aligned with the multicast engine).
				if s.omitter == nil || !s.omitter.Omit(i, j, now) {
					s.pending.push(Message{From: i, To: j, SentAt: now, DeliverAt: now + delay, Payload: r.Broadcast})
				} else {
					s.res.Omissions++
				}
				s.res.TotalMessages++
				if !s.res.Solved {
					s.res.Messages++
					s.res.Bytes += wireSize
				}
			}
		}

		for _, snd := range r.Sends {
			if snd.To < 0 || snd.To >= s.cfg.P || snd.To == i || snd.Payload == nil {
				continue
			}
			delay := s.adv.Delay(i, snd.To, now)
			if delay < 1 || delay > s.adv.D() {
				panic(fmt.Sprintf("sim: adversary delay %d outside [1,%d]", delay, s.adv.D()))
			}
			if s.omitter == nil || !s.omitter.Omit(i, snd.To, now) {
				s.pending.push(Message{From: i, To: snd.To, SentAt: now, DeliverAt: now + delay, Payload: snd.Payload})
			} else {
				s.res.Omissions++
			}
			s.res.TotalMessages++
			s.res.Multicasts++
			if !s.res.Solved {
				s.res.Messages++
				if sz, ok := snd.Payload.(Payload); ok {
					s.res.Bytes += int64(sz.WireSize())
				}
			}
		}

		if r.Halt {
			s.halted[i] = true
			if !s.res.Solved && !(s.tasks.Undone() == 0 && s.machines[i].KnowsAllDone()) {
				s.res.HaltedEarly = true
			}
		}
		if s.tasks.Undone() == 0 && s.machines[i].KnowsAllDone() {
			informed = true
		}
	}

	// 4. Solved check: all tasks done and some live processor informed.
	if !s.res.Solved && s.tasks.Undone() == 0 {
		if !informed {
			for i, m := range s.machines {
				if !s.crashed[i] && m.KnowsAllDone() {
					informed = true
					break
				}
			}
		}
		if informed {
			s.res.Solved = true
			s.res.SolvedAt = now
		}
	}
}
