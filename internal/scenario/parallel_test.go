package scenario

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"doall/internal/sim"
)

// TestParallelMatchesSequential is the parallel tick engine's acceptance
// matrix: every algorithm × fault adversary × shard count must reproduce
// the sequential engine's Result byte for byte. Shards only repartition
// one tick's schedule across goroutines; the serial reduction replays
// all shared-state mutations in schedule order, so nothing observable
// may move.
func TestParallelMatchesSequential(t *testing.T) {
	algos := []string{AlgoAllToAll, AlgoObliDo, AlgoDA, AlgoPaRan1, AlgoPaRan2, AlgoPaDet}
	advs := []string{
		"fair",
		"crashing(fair, crash=1@3, crash=5@9)",
		"restarting(fair, crash=1@3, crash=5@9, down=8)",
		"omitting(fair, drop=2@0:40, to=0, to=3)",
		"restarting(omitting(fair, drop=2@0:40, to=0, to=3), crash=1@3, crash=5@9, down=8)",
	}
	for _, algo := range algos {
		for _, adv := range advs {
			t.Run(algo+"/"+adv, func(t *testing.T) {
				base := Scenario{Algorithm: algo, Adversary: adv, P: 44, T: 256, D: 3, Seed: 17}
				seq, err := Run(base)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				if !seq.Solved() {
					t.Fatalf("sequential run did not solve")
				}
				for _, shards := range []int{2, 3, 4, 5, 7} {
					sc := base
					sc.Shards = shards
					par, err := Run(sc)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if !reflect.DeepEqual(seq.Sim, par.Sim) {
						t.Fatalf("shards=%d diverged from sequential:\nseq: %+v\npar: %+v",
							shards, seq.Sim, par.Sim)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequentialObserved repeats a slice of the matrix
// with an observer attached, checks the observers of the sequential and
// sharded ticks saw identical event streams, and that the Result's event
// counts equal an observer's hook totals at every shard count.
func TestParallelMatchesSequentialObserved(t *testing.T) {
	for _, algo := range []string{AlgoPaRan1, AlgoDA} {
		t.Run(algo, func(t *testing.T) {
			base := Scenario{
				Algorithm: algo,
				Adversary: "restarting(fair, crash=2@4, down=6)",
				P:         33, T: 128, D: 2, Seed: 5,
			}
			run := func(shards int) (*Result, []string) {
				sc := base
				sc.Shards = shards
				obs := &traceObserver{}
				res, err := RunWith(sc, Options{Observer: obs})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res, obs.events
			}
			seq, seqEv := run(1)
			par, parEv := run(4)
			if !reflect.DeepEqual(seq.Sim, par.Sim) {
				t.Fatalf("observed results diverged:\nseq: %+v\npar: %+v", seq.Sim, par.Sim)
			}
			if !reflect.DeepEqual(seqEv, parEv) {
				t.Fatalf("observer event streams diverged (%d vs %d events)", len(seqEv), len(parEv))
			}
		})
	}
	// The Result's whole-run event counts must equal an observer's hook
	// totals at every shard count.
	for _, algo := range []string{AlgoDA, AlgoPaRan1, AlgoPaRan2} {
		for _, adv := range []string{
			"fair",
			"random",
			"crashing(fair, crash=1@3, crash=5@9)",
			"restarting(fair, crash=1@3, crash=5@9, down=8)",
			"omitting(fair, drop=2@0:40, to=0, to=3)",
		} {
			t.Run("counts/"+algo+"/"+adv, func(t *testing.T) {
				for _, shards := range []int{1, 2, 4, 7} {
					sc := Scenario{Algorithm: algo, Adversary: adv, P: 44, T: 256, D: 3, Seed: 17, Shards: shards}
					plain, err := Run(sc)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					obs := &countObserver{}
					if _, err := RunWith(sc, Options{Observer: obs}); err != nil {
						t.Fatalf("shards=%d observed: %v", shards, err)
					}
					r := plain.Sim
					solved := int64(0)
					if r.Solved {
						solved = 1
					}
					got := [7]int64{r.TotalSteps, r.TotalMessages, r.Multicasts, r.Crashes, r.Revivals, r.Omissions, solved}
					if got != obs.n {
						t.Fatalf("shards=%d: Result counts %v (steps, messages, multicasts, crashes, revivals, omissions, solved), observer totals %v",
							shards, got, obs.n)
					}
				}
			})
		}
	}
}

// countObserver totals the hooks in the order of the Result fields they
// reconcile with: steps, message copies, multicasts, crashes, revivals,
// omissions, solved.
type countObserver struct {
	sim.NopObserver
	n [7]int64
}

func (o *countObserver) OnStep(int, int64, *sim.StepResult) { o.n[0]++ }
func (o *countObserver) OnMulticast(_ int, _ int64, _ any, recipients int) {
	o.n[1] += int64(recipients)
	o.n[2]++
}
func (o *countObserver) OnCrash(int, int64)          { o.n[3]++ }
func (o *countObserver) OnRevive(int, int64)         { o.n[4]++ }
func (o *countObserver) OnOmit(int, int, int64)      { o.n[5]++ }
func (o *countObserver) OnSolved(int64, *sim.Result) { o.n[6]++ }

// traceObserver records every engine event as a formatted line so two
// runs' streams can be compared wholesale.
type traceObserver struct{ events []string }

func (o *traceObserver) add(s string) { o.events = append(o.events, s) }

func (o *traceObserver) OnStep(i int, now int64, r *sim.StepResult) {
	o.add(fmt.Sprintf("step %d@%d task=%d halt=%v", i, now, r.PerformedTask(), r.Halt))
}
func (o *traceObserver) OnMulticast(from int, now int64, payload any, n int) {
	o.add(fmt.Sprintf("mc %d@%d n=%d", from, now, n))
}
func (o *traceObserver) OnDeliver(m sim.Message) {
	o.add(fmt.Sprintf("dl %d>%d@%d", m.From, m.To, m.DeliverAt))
}
func (o *traceObserver) OnCrash(i int, now int64)  { o.add(fmt.Sprintf("crash %d@%d", i, now)) }
func (o *traceObserver) OnRevive(i int, now int64) { o.add(fmt.Sprintf("revive %d@%d", i, now)) }
func (o *traceObserver) OnOmit(from, to int, now int64) {
	o.add(fmt.Sprintf("omit %d>%d@%d", from, to, now))
}
func (o *traceObserver) OnSolved(now int64, res *sim.Result) { o.add(fmt.Sprintf("solved@%d", now)) }

// TestParallelRaceShape drives the sharded engine at a p=4096 shape so
// the CI -race job exercises real multi-shard ticks (the small matrix
// shapes keep shards busy but tiny). Under -short it still runs — one
// modest run — so plain `go test ./...` keeps covering it.
func TestParallelRaceShape(t *testing.T) {
	p, tasks := 4096, 16384
	if testing.Short() {
		p, tasks = 1024, 4096
	}
	base := Scenario{Algorithm: AlgoPaRan1, Adversary: "fair", P: p, T: tasks, D: 2, Seed: 23}
	seq, err := Run(base)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	sc := base
	sc.Shards = 4
	par, err := Run(sc)
	if err != nil {
		t.Fatalf("shards=4: %v", err)
	}
	if !reflect.DeepEqual(seq.Sim, par.Sim) {
		t.Fatalf("p=%d shards=4 diverged from sequential", p)
	}
}

// TestSweepClosesShardWorkers pins the shard-worker lifecycle: a sharded
// sweep parks workers-1 × shards-1 goroutines on its per-worker engines,
// and the sweep teardown must Close them all — a fleet that leaks parked
// goroutines accumulates them across every sweep until process exit.
func TestSweepClosesShardWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	cells := RunSweep(SweepConfig{
		Algos:    []string{AlgoPaRan1, AlgoDA},
		Ps:       []int{32},
		Ts:       []int{128},
		Ds:       []int64{2},
		BaseSeed: 11,
		Workers:  4,
		Shards:   4,
	})
	for _, c := range cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Algo, c.Err)
		}
	}
	// Parked workers exit asynchronously after their wake channels close;
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines after sweep: %d, want ≤ %d (shard workers leaked?)", g, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResolveShards pins the shard-policy resolution: 0/1 sequential,
// auto scaling with width, clamping to p.
func TestResolveShards(t *testing.T) {
	for _, tc := range []struct{ req, p, want int }{
		{0, 65536, 1},
		{1, 65536, 1},
		{4, 65536, 4},
		{4, 3, 3},             // clamp to p
		{ShardsAuto, 1024, 1}, // too narrow to shard
	} {
		if got := ResolveShards(tc.req, tc.p); got != tc.want {
			t.Errorf("ResolveShards(%d, %d) = %d, want %d", tc.req, tc.p, got, tc.want)
		}
	}
	if got := ResolveShards(ShardsAuto, 1<<20); got < 1 {
		t.Errorf("auto resolution returned %d", got)
	}
}
