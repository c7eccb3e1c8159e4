package scenario

import (
	"reflect"
	"testing"
	"time"
)

// TestFaultAdversariesRegistered asserts the fault-plane combinators are
// addressable by name.
func TestFaultAdversariesRegistered(t *testing.T) {
	names := Adversaries()
	want := map[string]bool{AdvRestarting: false, AdvOmitting: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("adversary %q not registered (have %v)", n, names)
		}
	}
}

// TestFaultExpressionsRunDeterministically runs fault-plane expressions
// through the full Scenario pipeline and on the per-message reference
// engine (sim.RunLegacy): the two must agree byte for byte, and repeat
// runs must be identical (the acceptance bar for -adversary
// reachability).
func TestFaultExpressionsRunDeterministically(t *testing.T) {
	exprs := []string{
		"restarting(fair, down=6)",
		"restarting(crash=1@4, crash=2@9, down=12)",
		"restarting(random(activity=0.8), down=8)",
		"omitting(fair)",
		"omitting(drop=1@2:30, to=0, to=3)",
		"omitting(slow-set(fair, period=3), drop=2@0:40)",
		"restarting(omitting(fair, drop=2@0:12), crash=1@3, down=10)",
	}
	for _, algo := range []string{AlgoPaRan1, AlgoDA} {
		for _, expr := range exprs {
			sc := Scenario{Algorithm: algo, Adversary: expr, P: 6, T: 48, D: 2, Seed: 11}
			t.Run(algo+"/"+expr, func(t *testing.T) {
				if err := sc.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				run := func() *Result {
					res, err := Run(sc)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Solved() {
						t.Fatal("not solved")
					}
					return res
				}
				fast := run()
				again := run()
				legacy := runLegacy(t, sc)
				if !reflect.DeepEqual(fast.Sim, again.Sim) {
					t.Fatalf("repeat run diverged:\nfirst:  %+v\nsecond: %+v", fast.Sim, again.Sim)
				}
				if !reflect.DeepEqual(fast.Sim, legacy) {
					t.Fatalf("engines diverged:\nsim:    %+v\nlegacy: %+v", fast.Sim, legacy)
				}
			})
		}
	}
}

// TestFaultExpressionErrors asserts malformed fault parameters fail
// loudly at build time.
func TestFaultExpressionErrors(t *testing.T) {
	bad := []string{
		"restarting(down=0)",
		"restarting(down=x)",
		"restarting(crash=99@3)", // pid out of range
		"restarting(crash=1@-4)", // negative time
		"restarting(fair, fair)", // too many inners
		"restarting(bogus=1)",    // unknown parameter
		"omitting(drop=9@0)",     // pid out of range
		"omitting(drop=1@9:3)",   // empty window
		"omitting(drop=1)",       // missing @
		"omitting(to=77)",        // recipient out of range
		"omitting(drop=1@a)",     // bad time
		"omitting(fair, fair)",   // too many inners
		"omitting(window=3)",     // unknown parameter
	}
	for _, expr := range bad {
		sc := Scenario{Algorithm: AlgoPaRan1, Adversary: expr, P: 4, T: 16, D: 2}
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate(%q) accepted a malformed expression", expr)
		}
	}
}

// TestRuntimeBackendCrashRestart drives the goroutine runtime's
// crash-restart plane through the Scenario options.
func TestRuntimeBackendCrashRestart(t *testing.T) {
	sc := Scenario{Algorithm: AlgoPaRan1, P: 4, T: 24, D: 2, Seed: 5, Backend: BackendRuntime}
	res, err := RunWith(sc, Options{
		Unit:        100 * time.Microsecond,
		Timeout:     20 * time.Second,
		CrashAfter:  map[int]int{1: 2},
		ReviveAfter: map[int]int{1: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved() {
		t.Fatal("not solved")
	}
	if !res.Runtime.Crashed[1] || !res.Runtime.Revived[1] {
		t.Fatalf("pid 1 crash/revive not reported: crashed=%v revived=%v",
			res.Runtime.Crashed[1], res.Runtime.Revived[1])
	}
}

// TestFaultAdversariesInSweep asserts the new expressions work as sweep
// grid axes (the doall sweep -advs path) and stay deterministic
// across worker counts.
func TestFaultAdversariesInSweep(t *testing.T) {
	cfg := SweepConfig{
		Algos:       []string{AlgoPaRan1},
		Adversaries: []string{"fair", "restarting(down=4)", "omitting(drop=1@0:9)"},
		Ps:          []int{4},
		Ts:          []int{16},
		Ds:          []int64{2},
		Trials:      2,
		BaseSeed:    9,
	}
	one := cfg
	one.Workers = 1
	many := cfg
	many.Workers = 4
	a, b := RunSweep(one), RunSweep(many)
	for i := range a {
		a[i].NsPerRun = 0 // wall-clock; everything else must match exactly
	}
	for i := range b {
		b[i].NsPerRun = 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic across worker counts:\n1: %+v\n4: %+v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("got %d cells, want 3", len(a))
	}
	for _, c := range a {
		if c.Err != "" {
			t.Errorf("cell %+v failed: %s", c, c.Err)
		}
	}
}
