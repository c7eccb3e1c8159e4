package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"doall"
	"doall/cmd/internal/cli"
)

// run drives the run command as `doall run args...` would.
func run(args []string, w io.Writer) error {
	return cli.Run(context.Background(), append([]string{"run"}, args...), w, io.Discard)
}

func TestScenarioFromFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want doall.Scenario
	}{
		{
			name: "defaults",
			args: nil,
			want: doall.Scenario{Algorithm: "DA", Adversary: "fair", P: 8, T: 64, Q: 2, D: 1,
				Seed: 1, Trials: 1, SearchRestarts: 32, Shards: 1},
		},
		{
			name: "explicit",
			args: []string{"-algo", "PaRan1", "-p", "4", "-t", "32", "-d", "3", "-seed", "9", "-trials", "5"},
			want: doall.Scenario{Algorithm: "PaRan1", Adversary: "fair", P: 4, T: 32, Q: 2, D: 3,
				Seed: 9, Trials: 5, SearchRestarts: 32, Shards: 1},
		},
		{
			name: "adversary expression",
			args: []string{"-adversary", "crashing(slow-set(fair),crash=0@5)"},
			want: doall.Scenario{Algorithm: "DA", Adversary: "crashing(slow-set(fair),crash=0@5)",
				P: 8, T: 64, Q: 2, D: 1, Seed: 1, Trials: 1, SearchRestarts: 32, Shards: 1},
		},
		{
			name: "shards count",
			args: []string{"-shards", "4"},
			want: doall.Scenario{Algorithm: "DA", Adversary: "fair", P: 8, T: 64, Q: 2, D: 1,
				Seed: 1, Trials: 1, SearchRestarts: 32, Shards: 4},
		},
		{
			name: "shards auto",
			args: []string{"-shards", "auto"},
			want: doall.Scenario{Algorithm: "DA", Adversary: "fair", P: 8, T: 64, Q: 2, D: 1,
				Seed: 1, Trials: 1, SearchRestarts: 32, Shards: doall.ShardsAuto},
		},
		{
			name: "json spec",
			args: []string{"-spec", `{"algorithm":"PaDet","p":5,"t":25,"d":2,"seed":7}`},
			want: doall.Scenario{Algorithm: "PaDet", P: 5, T: 25, D: 2, Seed: 7},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := cli.ParseRun(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if sc != tc.want {
				t.Fatalf("scenario = %+v, want %+v", sc, tc.want)
			}
		})
	}
}

func TestRunUnknownNamesSurfaceRegistryErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "NoSuchAlgo", "-p", "2", "-t", "4"}, "unknown algorithm"},
		{[]string{"-adversary", "nope", "-p", "2", "-t", "4"}, "unknown adversary"},
		{[]string{"-adversary", "fair(", "-p", "2", "-t", "4"}, "expected argument"},
		{[]string{"-adversary", "crashing(crash=bad)", "-p", "2", "-t", "4"}, "PID@TIME"},
		{[]string{"-spec", `{"algorithm":"DA","bogus":1}`}, "bogus"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

func TestRunSlowSetAndCrashingEndToEnd(t *testing.T) {
	for _, adv := range []string{"crashing", "slow-set", "slow-set(slow=1,period=2)"} {
		var out bytes.Buffer
		if err := run([]string{"-algo", "PaRan1", "-p", "4", "-t", "16", "-d", "2", "-adversary", adv}, &out); err != nil {
			t.Fatalf("adversary %q: %v", adv, err)
		}
		if !strings.Contains(out.String(), "work") || !strings.Contains(out.String(), "adversary="+adv) {
			t.Fatalf("adversary %q: unexpected output:\n%s", adv, out.String())
		}
	}
}

// TestRunFaultPlaneEndToEnd drives the crash-restart and omission
// adversaries through the CLI, including the documented
// 'restarting(fair, down=64)' form, and asserts byte-identical repeat
// runs (the CLI's determinism contract for fixed seeds).
func TestRunFaultPlaneEndToEnd(t *testing.T) {
	for _, adv := range []string{
		"restarting(fair, down=64)",
		"restarting",
		"restarting(crash=1@5, down=10)",
		"omitting",
		"omitting(drop=1@0:20, to=0)",
		"restarting(omitting(fair), down=8)",
	} {
		var first string
		for rep := 0; rep < 2; rep++ {
			var out bytes.Buffer
			if err := run([]string{"-algo", "PaRan1", "-p", "6", "-t", "24", "-d", "2", "-adversary", adv}, &out); err != nil {
				t.Fatalf("adversary %q: %v", adv, err)
			}
			if !strings.Contains(out.String(), "work") || !strings.Contains(out.String(), "adversary="+adv) {
				t.Fatalf("adversary %q: unexpected output:\n%s", adv, out.String())
			}
			if rep == 0 {
				first = out.String()
			} else if out.String() != first {
				t.Fatalf("adversary %q: repeat run not byte-identical:\n%s\nvs:\n%s", adv, first, out.String())
			}
		}
	}
}

func TestRunFaultPlaneFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-adversary", "restarting(down=0)", "-p", "2", "-t", "4"}, "down=0"},
		{[]string{"-adversary", "restarting(crash=9@1)", "-p", "2", "-t", "4"}, "outside"},
		{[]string{"-adversary", "omitting(drop=oops)", "-p", "2", "-t", "4"}, "drop="},
		{[]string{"-adversary", "omitting(to=9)", "-p", "2", "-t", "4"}, "to="},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

func TestRunTrialsAveraging(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "AllToAll", "-p", "3", "-t", "9", "-trials", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E[work]     27.0") {
		t.Fatalf("averaged output missing deterministic E[work]:\n%s", out.String())
	}
}

// TestRunSpecRuntimeBackend: a -spec document selecting the goroutine
// runtime must print the runtime report, not dereference the (nil)
// simulator result.
func TestRunSpecRuntimeBackend(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-spec", `{"algorithm":"AllToAll","p":2,"t":4,"d":1,"backend":"runtime"}`}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend     runtime") || !strings.Contains(out.String(), "steps") {
		t.Fatalf("runtime-backend spec output missing runtime report:\n%s", out.String())
	}
}
