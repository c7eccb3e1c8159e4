package sim_test

import (
	"reflect"
	"testing"

	"doall/internal/adversary"
	"doall/internal/core"
	"doall/internal/sim"
)

// bcastFact captures one watched broadcast's shape during the hook —
// payloads must not be retained past the callback (the engine recycles
// them), so the observer extracts version and chain length on the spot.
type bcastFact struct {
	at    int64
	ver   int64
	chain int
}

// faultObserver records revive/omit hooks and the broadcasts of one
// watched processor, in order.
type faultObserver struct {
	sim.NopObserver
	revives []int
	omits   int
	watch   int
	casts   []bcastFact
}

func (o *faultObserver) OnRevive(pid int, now int64) { o.revives = append(o.revives, pid) }
func (o *faultObserver) OnOmit(from, to int, sentAt int64) {
	o.omits++
}
func (o *faultObserver) OnMulticast(from int, now int64, payload any, recipients int) {
	if from != o.watch {
		return
	}
	ds, ok := payload.(core.DoneSet)
	if !ok {
		return
	}
	o.casts = append(o.casts, bcastFact{at: now, ver: ds.S.Ver(), chain: ds.S.ChainLen()})
}

// TestReviveRebasesNextBroadcast asserts the rebase-on-revive rule end to
// end: after a crash-restart, the revived processor's next broadcast is a
// fresh rebase — a snapshot with no delta chain, whose base alone holds
// the new incarnation's knowledge.
func TestReviveRebasesNextBroadcast(t *testing.T) {
	// Single-task jobs (t ≤ p) make PA broadcast at every performing
	// step, so the revived processor broadcasts again before the cohort's
	// full knowledge reaches it and halts it.
	const p, tasks, d = 8, 8, 4
	const crashAt, reviveAt = 1, 3
	obs := &faultObserver{watch: 1}
	ms := core.NewPaRan1(p, tasks, 5)
	adv := adversary.NewRestarting(adversary.NewFair(d), []adversary.RestartEvent{
		{Pid: 1, CrashAt: crashAt, ReviveAt: reviveAt},
	})
	res, err := sim.Run(sim.Config{P: p, T: tasks, Observer: obs}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if !reflect.DeepEqual(obs.revives, []int{1}) {
		t.Fatalf("OnRevive fired for %v, want [1]", obs.revives)
	}
	var pre, post bcastFact
	var foundPre, foundPost bool
	for _, c := range obs.casts {
		if c.at < crashAt && !foundPre {
			pre, foundPre = c, true
		}
		if c.at >= reviveAt && !foundPost {
			post, foundPost = c, true
		}
	}
	if !foundPre || !foundPost {
		t.Fatalf("want pre-crash and post-revive broadcasts, got pre=%v post=%v (casts %v)", foundPre, foundPost, obs.casts)
	}
	if post.chain != 0 {
		t.Fatalf("first post-revive broadcast has a %d-segment delta chain; want a fresh rebase", post.chain)
	}
	if post.ver <= pre.ver {
		t.Fatalf("post-revive snapshot version %d not above pre-crash %d", post.ver, pre.ver)
	}
}

// TestOmitObserverAndAccounting asserts omitted copies fire OnOmit, are
// charged as sent, and never reach an inbox.
func TestOmitObserverAndAccounting(t *testing.T) {
	const p, tasks, d = 4, 32, 2
	// Pid 0 loses every copy of everything it ever sends.
	adv := adversary.NewOmitting(adversary.NewFair(d), []adversary.OmitWindow{
		{Pid: 0, From: 0, Until: 1 << 30},
	}, nil)
	obs := &faultObserver{watch: -1}
	delivered := 0
	deliverObs := &sim.FuncObserver{Deliver: func(m sim.Message) {
		if m.From == 0 {
			delivered++
		}
	}}
	ms := core.NewPaRan1(p, tasks, 3)
	res, err := sim.Run(sim.Config{P: p, T: tasks, Observer: sim.MultiObserver{obs, deliverObs}}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved: omission must cost work, never liveness")
	}
	if delivered != 0 {
		t.Fatalf("%d copies from the omitted sender were delivered", delivered)
	}
	if obs.omits == 0 {
		t.Fatal("no OnOmit events for a sender whose every copy is dropped")
	}
	// The omitted sender's sends are still charged: with p-1 recipients
	// per broadcast, omits must be a multiple of p-1 and TotalMessages
	// must include them.
	if obs.omits%(p-1) != 0 {
		t.Errorf("omits = %d, want a multiple of p-1 = %d", obs.omits, p-1)
	}
	if res.TotalMessages < int64(obs.omits) {
		t.Errorf("TotalMessages = %d < omitted copies %d: omission must not refund sends", res.TotalMessages, obs.omits)
	}
}

// TestFaultPlaneDeterministic asserts byte-identical repeat runs for the
// new fault adversaries on both engines: rebuilding machines and
// adversary from the same seed reproduces the exact Result.
func TestFaultPlaneDeterministic(t *testing.T) {
	const p, tasks, d = 8, 64, 3
	build := func() ([]sim.Machine, sim.Adversary) {
		ms := core.NewPaRan1(p, tasks, 42)
		adv := adversary.NewRestarting(
			adversary.NewOmitting(adversary.NewRandom(d, 0.7, 99), []adversary.OmitWindow{
				{Pid: 2, From: 0, Until: 20},
			}, nil),
			[]adversary.RestartEvent{{Pid: 1, CrashAt: 2, ReviveAt: 12}},
		)
		return ms, adv
	}
	for name, engine := range map[string]func(sim.Config, []sim.Machine, sim.Adversary) (*sim.Result, error){
		"engine": sim.Run,
		"legacy": sim.RunLegacy,
	} {
		ms1, adv1 := build()
		r1, err1 := engine(sim.Config{P: p, T: tasks}, ms1, adv1)
		ms2, adv2 := build()
		r2, err2 := engine(sim.Config{P: p, T: tasks}, ms2, adv2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", name, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: repeat run diverged:\nfirst:  %+v\nsecond: %+v", name, r1, r2)
		}
	}
}

// TestReviveContributesWork asserts a revived processor really re-enters
// the execution: it takes steps after its revive instant.
func TestReviveContributesWork(t *testing.T) {
	const p, tasks, d = 4, 64, 1
	var preCrash, postRevive int64
	obs := &sim.FuncObserver{Step: func(pid int, now int64, r *sim.StepResult) {
		if pid != 1 {
			return
		}
		if now < 3 {
			preCrash++
		}
		if now >= 8 {
			postRevive++
		}
	}}
	ms := core.NewAllToAll(p, tasks)
	adv := adversary.NewRestarting(adversary.NewFair(d), []adversary.RestartEvent{
		{Pid: 1, CrashAt: 3, ReviveAt: 8},
	})
	res, err := sim.Run(sim.Config{P: p, T: tasks, Observer: obs}, ms, adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("not solved")
	}
	if preCrash == 0 || postRevive == 0 {
		t.Fatalf("revived processor steps: pre-crash %d, post-revive %d; want both > 0", preCrash, postRevive)
	}
	// AllToAll rejoins from scratch: its per-processor work exceeds a
	// never-crashed peer's because the restart discards progress.
	if res.PerProcWork[1] <= res.PerProcWork[3]-int64(tasks) {
		t.Fatalf("unexpected per-proc work after restart: %v", res.PerProcWork)
	}
}
