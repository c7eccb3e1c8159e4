package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"doall"
	"doall/cmd/internal/cli"
)

// run drives the doall command line args with stderr discarded.
func run(args []string, w io.Writer) error { return runWithStderr(args, w, io.Discard) }

// runWithStderr drives the doall command line args with an injectable
// stderr, so the -progress meter and interruption notices are testable.
func runWithStderr(args []string, w, errw io.Writer) error {
	return cli.Run(context.Background(), args, w, errw)
}

// gridArgs spells a sweep grid as command-line flags.
func gridArgs(algos, ps, ts, ds, adv string, extra ...string) []string {
	return append([]string{"-algos", algos, "-p", ps, "-t", ts, "-d", ds, "-adv", adv}, extra...)
}

func TestSweepFlagParsing(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want doall.SweepConfig
	}{
		{
			name: "plain grid",
			args: gridArgs("DA,PaRan1", "4,8", "16", "1,2", "fair", "-trials", "2", "-seed", "5"),
			want: doall.SweepConfig{
				Algos: []string{"DA", "PaRan1"}, Ps: []int{4, 8}, Ts: []int{16}, Ds: []int64{1, 2},
				Adversary: "fair", BaseSeed: 5, Trials: 2, Shards: 1,
			},
		},
		{
			name: "whitespace and empties",
			args: gridArgs(" DA , ,PaDet ", "4", "8", "1", "fair"),
			want: doall.SweepConfig{
				Algos: []string{"DA", "PaDet"}, Ps: []int{4}, Ts: []int{8}, Ds: []int64{1},
				Adversary: "fair", Trials: 1, Shards: 1,
			},
		},
		{
			name: "adversary expression with commas",
			args: gridArgs("PaRan1", "4", "8", "2", "crashing(crash=0@3,crash=1@5)"),
			want: doall.SweepConfig{
				Algos: []string{"PaRan1"}, Ps: []int{4}, Ts: []int{8}, Ds: []int64{2},
				Adversary: "crashing(crash=0@3,crash=1@5)", Trials: 1, Shards: 1,
			},
		},
		{
			name: "semicolon adversary grid",
			args: gridArgs("PaRan1", "4", "8", "2", "fair", "-advs", "fair; crashing ;slow-set(period=2)"),
			want: doall.SweepConfig{
				Algos: []string{"PaRan1"}, Ps: []int{4}, Ts: []int{8}, Ds: []int64{2},
				Adversary: "fair", Adversaries: []string{"fair", "crashing", "slow-set(period=2)"},
				Trials: 1, Shards: 1,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := cli.ParseSweep(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Config, tc.want) {
				t.Fatalf("config = %+v, want %+v", got.Config, tc.want)
			}
		})
	}
}

func TestSweepFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad p", gridArgs("DA", "4,x", "8", "1", "fair"), "-p"},
		{"bad t", gridArgs("DA", "4", "", "1", "fair"), "empty t axis"},
		{"bad d", gridArgs("DA", "4", "8", "one", "fair"), "-d"},
		{"empty t axis", gridArgs("DA", "4", " , ", "1", "fair"), "empty t axis"},
		{"unknown algo", gridArgs("DA,NoSuch", "4", "8", "1", "fair"), "unknown algorithm"},
		{"crash pid beyond largest p", gridArgs("DA", "4,8", "8", "1", "crashing(crash=9@1)"), "outside [0, 8)"},
		{"unknown adv", gridArgs("DA", "4", "8", "1", "nope"), "unknown adversary"},
		{"unknown adv in grid", gridArgs("DA", "4", "8", "1", "fair", "-advs", "fair;nope"), "unknown adversary"},
		{"bad expression", gridArgs("DA", "4", "8", "1", "crashing(crash=zap)"), "PID@TIME"},
		{"negative trials", gridArgs("DA", "4", "8", "1", "fair", "-trials", "-3"), "trials=-3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cli.ParseSweep(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSweep error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSweepValidationUsesGridShape guards against the probe rejecting
// parameters that are valid for the actual grid: delay/slow bounds must
// be checked against the grid's largest d and p, not a fixed tiny shape.
func TestSweepValidationUsesGridShape(t *testing.T) {
	for _, args := range [][]string{
		gridArgs("PaRan1", "16", "16", "8", "fair(delay=2)"),
		gridArgs("PaRan1", "16", "16", "2", "slow-set(slow=9)"),
		gridArgs("PaRan1", "4,16", "16", "1,8", "crashing(crash=7@3)"),
	} {
		if _, err := cli.ParseSweep(args, io.Discard); err != nil {
			t.Errorf("ParseSweep(%q) rejected a grid-valid adversary: %v", args, err)
		}
	}
}

// TestSweepEndToEndRecordsAdversaries runs a tiny real sweep through the
// CLI path and checks the BENCH-schema JSON carries the adversary axis.
func TestSweepEndToEndRecordsAdversaries(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2",
		"-advs", "fair;slow-set(period=2)", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("sweep output is not a SweepReport: %v", err)
	}
	if rep.Adversary != "fair;slow-set(period=2)" {
		t.Errorf("report adversary = %q", rep.Adversary)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rep.Cells))
	}
	for i, want := range []string{"fair", "slow-set(period=2)"} {
		if rep.Cells[i].Adversary != want {
			t.Errorf("cell %d adversary = %q, want %q", i, rep.Cells[i].Adversary, want)
		}
		if rep.Cells[i].Err != "" {
			t.Errorf("cell %d failed: %s", i, rep.Cells[i].Err)
		}
	}
}

// TestSweepFaultPlaneAxes drives restarting/omitting expressions as
// -advs sweep axes end to end.
func TestSweepFaultPlaneAxes(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-algos", "PaRan1,DA", "-p", "4", "-t", "16", "-d", "2",
		"-advs", "restarting(down=4);omitting(drop=1@0:9)", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("sweep output is not a SweepReport: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(rep.Cells))
	}
	seen := map[string]int{}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.Algo, c.Adversary, c.Err)
		}
		seen[c.Adversary]++
	}
	if seen["restarting(down=4)"] != 2 || seen["omitting(drop=1@0:9)"] != 2 {
		t.Errorf("adversary axis mis-recorded: %v", seen)
	}
}

// TestSweepFaultPlanePreValidates asserts malformed fault expressions
// are rejected before the sweep starts (the -advs fail-fast path).
func TestSweepFaultPlanePreValidates(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2",
		"-advs", "restarting(down=0)"}, &out)
	if err == nil || !strings.Contains(err.Error(), "down=0") {
		t.Fatalf("sweep accepted a malformed restarting expression: %v", err)
	}
}

func TestExperimentsSubsetRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"experiments", "-only", "E3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E3") {
		t.Fatalf("E3 table missing from output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "E5") {
		t.Fatal("-only filter leaked other experiments")
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"experiments", "-scale", "enormous"}, &out); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestProfilingFlags drives -cpuprofile/-memprofile through a tiny real
// sweep and checks both profiles land on disk non-empty; bad paths must
// fail before any sweep work.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out bytes.Buffer
	err := run([]string{"-cpuprofile", cpu, "-memprofile", mem,
		"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("profiled sweep lost its report: %v", err)
	}
}

func TestProfilingFlagBadPathsFailFast(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out bytes.Buffer
		err := run([]string{flag, filepath.Join(t.TempDir(), "no", "such", "dir", "p.out"),
			"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2"}, &out)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("%s with unwritable path: err = %v, want %s error", flag, err, flag)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: sweep ran despite unwritable profile path", flag)
		}
	}
}

// TestProgressFlag checks the -progress meter: one update per cell on
// stderr, ending in a newline, without disturbing the JSON on stdout.
func TestProgressFlag(t *testing.T) {
	var out, errw bytes.Buffer
	err := runWithStderr([]string{"sweep", "-algos", "PaRan1", "-p", "4,8", "-t", "16", "-d", "1,2",
		"-progress", "-workers", "1"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("progress meter corrupted the report: %v", err)
	}
	got := errw.String()
	for done := 1; done <= 4; done++ {
		want := fmt.Sprintf("sweep: %d/4 cells", done)
		if !strings.Contains(got, want) {
			t.Errorf("stderr missing %q:\n%q", want, got)
		}
	}
	if !strings.HasSuffix(got, "\n") {
		t.Errorf("progress meter does not end with a newline: %q", got)
	}
}

func TestTheoryFlagEmitsBoundsColumns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-theory", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Theory || len(rep.Cells) != 1 {
		t.Fatalf("report theory=%v cells=%d", rep.Theory, len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.LowerBound <= 0 || c.DAUpperBound <= 0 || c.PAUpperBound <= 0 || c.WorkOverLB <= 0 {
		t.Fatalf("theory columns missing: %+v", c)
	}
	want, _, _ := doall.TheoryBounds(4, 16, 2, 0.5)
	if c.LowerBound != want {
		t.Fatalf("lower bound %v, want %v", c.LowerBound, want)
	}
}

func TestTheoryOffOmitsBoundsColumns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "lower_bound") {
		t.Fatalf("theory columns emitted without -theory:\n%s", out.String())
	}
}

func TestMaxMemFailsFastOnLargeGrid(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4096", "-t", "262144", "-d", "8", "-maxmem", "1m"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-maxmem") {
		t.Fatalf("undersized budget not rejected: %v", err)
	}
	if out.Len() != 0 {
		t.Fatal("sweep ran despite failing the memory budget")
	}
	// A generous budget lets the same flags pass validation (tiny grid
	// so the test stays fast).
	if err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "2", "-maxmem", "2g"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"1024": 1024, "4k": 4 << 10, "512M": 512 << 20, "8g": 8 << 30,
		"1gib": 1 << 30, "2GB": 2 << 30, "1t": 1 << 40,
	}
	for in, want := range cases {
		got, err := cli.ParseBytes(in)
		if err != nil || got != want {
			t.Fatalf("cli.ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5", "0", "4q"} {
		if _, err := cli.ParseBytes(bad); err == nil {
			t.Fatalf("cli.ParseBytes(%q) accepted", bad)
		}
	}
}

// TestCalibrateAndTwinStamping drives the analytical-twin loop end to
// end through the CLI: sweep → calibrate fit → re-sweep with -twin
// stamping predicted columns next to the measured ones.
func TestCalibrateAndTwinStamping(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "rep.json")
	fit := filepath.Join(dir, "fit.json")
	stamped := filepath.Join(dir, "stamped.json")

	var out bytes.Buffer
	if err := run([]string{"sweep", "-algos", "DA,PaRan1", "-p", "4,8", "-t", "16,32", "-d", "1,2", "-out", rep}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"calibrate", "-out", fit, rep}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fit)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := doall.LoadTwin(data)
	if err != nil {
		t.Fatalf("calibrated fit does not load back: %v", err)
	}
	if len(tw.Groups) != 2 {
		t.Fatalf("fit has %d groups, want 2 (DA/fair, PaRan1/fair)", len(tw.Groups))
	}

	// The same grid re-swept with -twin carries predicted columns, and the
	// predictions agree with the measurements (the twin was fit on exactly
	// these cells, so its band covers them).
	if err := run([]string{"sweep", "-algos", "DA,PaRan1", "-p", "4,8", "-t", "16,32", "-d", "1,2", "-twin", fit, "-out", stamped}, &out); err != nil {
		t.Fatal(err)
	}
	sdata, err := os.ReadFile(stamped)
	if err != nil {
		t.Fatal(err)
	}
	var report doall.SweepReport
	if err := json.Unmarshal(sdata, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range report.Cells {
		if c.PredWork <= 0 {
			t.Fatalf("%s p=%d t=%d d=%d: no pred_work stamped", c.Algo, c.P, c.T, c.D)
		}
		if rel := (c.PredWork - c.Work) / c.Work; rel > 3 || rel < -0.75 {
			t.Fatalf("%s p=%d t=%d d=%d: pred_work %v wildly off measured %v", c.Algo, c.P, c.T, c.D, c.PredWork, c.Work)
		}
	}

	// A stale or corrupt fit fails fast, before any grid time burns.
	if err := os.WriteFile(fit, []byte(`{"version":99,"groups":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sweep", "-algos", "DA", "-p", "4", "-t", "16", "-d", "1", "-twin", fit, "-out", stamped}, &out); err == nil {
		t.Fatal("stale fit version accepted")
	}
	if err := run([]string{"calibrate", "-out", fit, filepath.Join(dir, "missing.json")}, &out); err == nil {
		t.Fatal("missing calibration input accepted")
	}
}
