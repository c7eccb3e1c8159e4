// Package cli is the implementation of the doall command: one front door
// whose subcommands run scenarios, regenerate the experiment tables,
// measure sweep grids, calibrate the analytical twin, search contention
// schedules, serve the job daemon, and talk to it. It uses the public
// doall API only. The subcommands share one flag binder per concept (a
// scenario, a sweep grid) and one parser per value type (shard policy,
// byte budget, comma list).
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"doall"
)

// command is one subcommand body.
type command func(ctx context.Context, args []string, w, errw io.Writer) error

var commands = map[string]command{
	"run":         runScenario,
	"experiments": runExperiments,
	"sweep":       runSweep,
	"calibrate":   runCalibrate,
	"contention":  runContention,
	"serve":       runServe,
	"ctl":         runCtl,
	"version": func(_ context.Context, _ []string, w, _ io.Writer) error {
		fmt.Fprintln(w, "doall", doall.Version())
		return nil
	},
}

func usage(errw io.Writer) {
	fmt.Fprintln(errw, `usage: doall [-cpuprofile file] [-memprofile file] <command> [flags]

commands:
  run          run one scenario and print its cost next to the paper's bounds
  experiments  print the E1–E10 experiment tables
  sweep        measure an (algorithm, adversary, p, t, d) grid as a JSON report
  calibrate    fit the analytical twin from recorded sweep reports
  contention   search and measure Section 4's permutation schedules
  serve        run the job daemon
  ctl          talk to a running daemon (doall ctl -h lists its commands)
  version      print the build version

Run 'doall <command> -h' for a command's flags.`)
}

// Run executes the command line args (without the program name): global
// profiling flags, then a subcommand and its flags.
func Run(ctx context.Context, args []string, w, errw io.Writer) error {
	var cpuprofile, memprofile string
	fs := flag.NewFlagSet("doall", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() { usage(errw) }
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the command to this file")
	fs.StringVar(&memprofile, "memprofile", "", "write an allocation profile to this file after the command")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		usage(errw)
		return fmt.Errorf("no command")
	}
	cmd, ok := commands[fs.Arg(0)]
	if !ok {
		usage(errw)
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
	return withProfiles(cpuprofile, memprofile, func() error {
		return cmd(ctx, fs.Args()[1:], w, errw)
	})
}

// signalContext returns a context canceled by the first SIGINT or
// SIGTERM. The handler then steps aside, so a second signal kills the
// process the default way.
func signalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// newFlagSet returns a subcommand flag set that reports to errw.
func newFlagSet(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("doall "+name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

// bindScenario registers the flags naming one scenario's algorithm,
// adversary and shape, with defaults taken from def. run and ctl predict
// share it.
func bindScenario(fs *flag.FlagSet, def doall.Scenario) *doall.Scenario {
	sc := new(doall.Scenario)
	fs.StringVar(&sc.Algorithm, "algo", def.Algorithm, "algorithm: "+strings.Join(doall.RegisteredAlgorithms(), ", "))
	fs.StringVar(&sc.Adversary, "adversary", def.Adversary, "adversary expression over: "+strings.Join(doall.RegisteredAdversaries(), ", "))
	fs.IntVar(&sc.P, "p", def.P, "number of processors")
	fs.IntVar(&sc.T, "t", def.T, "number of tasks")
	fs.Int64Var(&sc.D, "d", def.D, "message delay bound d")
	fs.IntVar(&sc.Q, "q", def.Q, "progress-tree arity (DA only; 0 = default binary tree)")
	return sc
}

// withProfiles runs the workload wrapped in the requested CPU and
// allocation profiles. Profile files are created before the workload runs
// so bad paths fail fast, not after a multi-minute grid; the allocation
// profile is written (after a GC, so it reflects live + cumulative alloc
// sites accurately) when the workload finishes.
func withProfiles(cpuprofile, memprofile string, work func() error) error {
	var memf *os.File
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		memf = f
		defer memf.Close()
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := work(); err != nil {
		return err
	}
	if memf != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memf); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// parseShards turns a -shards value — a shard count or the word "auto" —
// into the Scenario.Shards encoding (auto = doall.ShardsAuto).
func parseShards(s string) (int, error) {
	switch s {
	case "", "1":
		return 1, nil
	case "auto":
		return doall.ShardsAuto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("-shards wants a count ≥ 1 or 'auto', got %q", s)
	}
	return n, nil
}

// ParseBytes parses a byte budget: a plain integer, or with a k/m/g/t
// suffix (binary units, case-insensitive, optional trailing 'b'/'ib').
func ParseBytes(s string) (int64, error) {
	orig := s
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.TrimSuffix(s, "ib")
	s = strings.TrimSuffix(s, "b")
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "t"):
		mult, s = 1<<40, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad byte budget %q (want e.g. 4g, 512m, 1073741824)", orig)
	}
	return v * mult, nil
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// splitList splits s at sep, trimming items and dropping empty ones.
func splitList(s, sep string) []string {
	var items []string
	for _, it := range strings.Split(s, sep) {
		if it = strings.TrimSpace(it); it != "" {
			items = append(items, it)
		}
	}
	return items
}

// parseInts parses a comma-separated list of integers.
func parseInts(s string) ([]int, error) {
	var vals []int
	for _, it := range splitList(s, ",") {
		v, err := strconv.Atoi(it)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
