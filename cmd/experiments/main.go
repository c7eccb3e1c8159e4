// Command experiments regenerates every experiment in the E1–E10 index
// (AllExperiments in internal/scenario/experiments.go) and prints the
// result tables, optionally as Markdown.
//
// Usage:
//
//	experiments                  # quick scale, plain text
//	experiments -scale full      # full-scale sizes
//	experiments -markdown        # Markdown output
//	experiments -only E5,E6      # subset
//
// It is also the front-end of the sharded sweep runner, which fans an
// (algorithm, adversary, p, t, d) grid across GOMAXPROCS workers with
// deterministic per-cell seeds and emits a JSON perf report (the
// BENCH_*.json schema). -adv takes one adversary expression; -advs takes
// a ';'-separated list to add an adversary axis to the grid (';' because
// expressions like crashing(crash=0@3,crash=1@5) contain commas):
//
//	experiments -sweep                              # default grid to stdout
//	experiments -sweep -out BENCH_0.json            # write the baseline file
//	experiments -sweep -algos PaRan1,DA -p 64,256 -t 1024 -d 1,8,64 -trials 3
//	experiments -sweep -adv 'crashing(slow-set(fair))'
//	experiments -sweep -advs 'fair;crashing;slow-set(period=8)'
//	experiments -sweep -progress                    # live cells-done meter on stderr
//
// Profiling flags make sweep hot spots measurable without editing code;
// they wrap whichever workload runs (the sweep or the experiment tables):
//
//	experiments -sweep -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"doall"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep context: in-flight cells stop at
	// their next trial boundary and the report is still written, with
	// "partial": true. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// sweepFlags holds the sweep-mode command line; config() converts it to a
// SweepConfig.
type sweepFlags struct {
	algos   string
	ps      string
	ts      string
	ds      string
	adv     string
	advs    string
	trials  int
	workers int
	seed    int64
	theory  bool
	maxmem  string
	shards  string
	q       int
}

// config assembles and validates the declarative sweep grid.
func (f sweepFlags) config() (doall.SweepConfig, error) {
	cfg := doall.SweepConfig{
		Adversary: f.adv,
		BaseSeed:  f.seed,
		Trials:    f.trials,
		Workers:   f.workers,
		Theory:    f.theory,
		Q:         f.q,
	}
	switch f.shards {
	case "", "1":
		cfg.Shards = 1
	case "auto":
		cfg.Shards = doall.ShardsAuto
	default:
		n, err := strconv.Atoi(f.shards)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("-shards wants a count ≥ 1 or 'auto', got %q", f.shards)
		}
		cfg.Shards = n
	}
	cfg.Algos = splitList(f.algos, ",")
	if f.advs != "" {
		cfg.Adversaries = splitList(f.advs, ";")
	}
	var err error
	if cfg.Ps, err = parseInts(f.ps); err != nil {
		return cfg, fmt.Errorf("-p: %w", err)
	}
	if cfg.Ts, err = parseInts(f.ts); err != nil {
		return cfg, fmt.Errorf("-t: %w", err)
	}
	dvals, err := parseInts(f.ds)
	if err != nil {
		return cfg, fmt.Errorf("-d: %w", err)
	}
	for _, d := range dvals {
		cfg.Ds = append(cfg.Ds, int64(d))
	}
	switch {
	case len(cfg.Algos) == 0:
		return cfg, fmt.Errorf("-algos: empty grid axis")
	case len(cfg.Ps) == 0:
		return cfg, fmt.Errorf("-p: empty grid axis")
	case len(cfg.Ts) == 0:
		return cfg, fmt.Errorf("-t: empty grid axis")
	case len(cfg.Ds) == 0:
		return cfg, fmt.Errorf("-d: empty grid axis")
	}
	// Reject unknown algorithms/adversaries before burning sweep time.
	// Probe with the grid's largest shape so shape-dependent parameters
	// (fair(delay=8) with -d 8, slow-set(slow=9) with -p 16) validate
	// against what the cells will actually run; smaller cells that still
	// violate a parameter surface as per-cell errors in the report.
	probe := doall.Scenario{P: maxInt(cfg.Ps), T: maxInt(cfg.Ts), D: maxInt64(cfg.Ds), Seed: 1}
	advs := cfg.Adversaries
	if len(advs) == 0 {
		advs = []string{cfg.Adversary}
	}
	for _, algo := range cfg.Algos {
		for _, adv := range advs {
			probe.Algorithm, probe.Adversary = algo, adv
			if err := probe.Validate(); err != nil {
				return cfg, err
			}
		}
	}
	// Pre-estimate per-worker memory for the largest grid shape and fail
	// fast with a clear error instead of OOMing mid-sweep.
	if f.maxmem != "" {
		budget, err := parseBytes(f.maxmem)
		if err != nil {
			return cfg, fmt.Errorf("-maxmem: %w", err)
		}
		if est := doall.EstimateSweepMemory(cfg); est > budget {
			return cfg, fmt.Errorf(
				"estimated sweep memory %s (largest shape p=%d t=%d × concurrent workers) exceeds -maxmem %s; shrink the grid, lower -workers, or raise the budget",
				formatBytes(est), maxInt(cfg.Ps), maxInt(cfg.Ts), formatBytes(budget))
		}
	}
	return cfg, nil
}

// parseBytes parses a byte budget: a plain integer, or with a k/m/g/t
// suffix (binary units, case-insensitive, optional trailing 'b'/'ib').
func parseBytes(s string) (int64, error) {
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

func maxInt(vals []int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func maxInt64(vals []int64) int64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func run(args []string, w io.Writer) error { return runWithStderr(args, w, os.Stderr) }

// runWithStderr is run with an injectable stderr so the -progress meter is
// testable.
func runWithStderr(args []string, w, errw io.Writer) error {
	return runContext(context.Background(), args, w, errw)
}

// runContext is the full command body with an injectable context: when
// it is canceled (SIGINT, or the -timeout budget expiring), a running
// sweep stops at the next trial boundary and still writes its report,
// marked partial.
func runContext(ctx context.Context, args []string, w, errw io.Writer) error {
	var (
		f          sweepFlags
		scale      string
		markdown   bool
		only       string
		sweep      bool
		calibrate  bool
		benchList  string
		twinPath   string
		out        string
		progress   bool
		timeout    time.Duration
		version    bool
		cpuprofile string
		memprofile string
	)
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.StringVar(&scale, "scale", "quick", "experiment scale: quick or full")
	fs.BoolVar(&markdown, "markdown", false, "emit Markdown instead of plain text")
	fs.StringVar(&only, "only", "", "comma-separated experiment ids to run (default all)")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the workload to this file")
	fs.StringVar(&memprofile, "memprofile", "", "write an allocation profile to this file after the workload")
	fs.BoolVar(&progress, "progress", false, "sweep: print a live cells-completed meter to stderr")
	fs.DurationVar(&timeout, "timeout", 0, "sweep: wall-clock budget; on expiry the report is written with the cells completed so far, marked partial (0 = unlimited)")
	fs.BoolVar(&version, "version", false, "print the build version and exit")

	fs.BoolVar(&sweep, "sweep", false, "run the sharded (algo,adv,p,t,d) sweep instead of E1–E10")
	fs.StringVar(&out, "out", "", "sweep: write the JSON report to this file (default stdout)")
	fs.StringVar(&f.algos, "algos", "AllToAll,DA,PaRan1,PaDet", "sweep: comma-separated algorithms")
	fs.StringVar(&f.ps, "p", "16,64,256", "sweep: comma-separated processor counts")
	fs.StringVar(&f.ts, "t", "256,1024", "sweep: comma-separated task counts")
	fs.StringVar(&f.ds, "d", "1,8,64", "sweep: comma-separated delay bounds")
	fs.StringVar(&f.adv, "adv", "fair", "sweep: adversary expression ("+strings.Join(doall.RegisteredAdversaries(), ", ")+")")
	fs.StringVar(&f.advs, "advs", "", "sweep: ';'-separated adversary expressions (adds a grid axis; overrides -adv)")
	fs.IntVar(&f.trials, "trials", 1, "sweep: runs per cell (averaged)")
	fs.IntVar(&f.workers, "workers", 0, "sweep: worker goroutines (0 = GOMAXPROCS)")
	fs.Int64Var(&f.seed, "seed", 0, "sweep: base seed for per-cell seed derivation")
	fs.BoolVar(&f.theory, "theory", false, "sweep: add LowerBound/DAUpperBound/PAUpperBound theory columns per cell")
	fs.StringVar(&f.maxmem, "maxmem", "", "sweep: fail fast if the estimated per-sweep memory exceeds this budget (e.g. 4g, 512m)")
	fs.StringVar(&f.shards, "shards", "1", "sweep: intra-run parallel shards per cell — a count, or 'auto' (results are identical at any value; only ns_per_run moves)")
	fs.IntVar(&f.q, "q", 0, "sweep: DA progress-tree arity (0 = default binary tree; the DA theory column's ε follows it)")
	fs.StringVar(&twinPath, "twin", "", "sweep: stamp pred_work/pred_messages/pred_solved_at columns from this calibrated twin fit (in-envelope cells only)")
	fs.BoolVar(&calibrate, "calibrate", false, "calibrate the analytical twin from recorded sweep reports (-bench) and write the fit (-out, default TWIN_FIT.json)")
	fs.StringVar(&benchList, "bench", "BENCH_0.json,BENCH_1.json,BENCH_2.json,BENCH_3.json", "calibrate: comma-separated recorded sweep reports to fit from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if version {
		fmt.Fprintln(w, "experiments", doall.Version())
		return nil
	}

	if calibrate {
		return runCalibrate(benchList, out, w, errw)
	}

	if sweep {
		cfg, err := f.config()
		if err != nil {
			return err
		}
		var tw *doall.Twin
		if twinPath != "" {
			// Load the fit before burning grid time: a bad path or stale
			// schema fails fast.
			data, err := os.ReadFile(twinPath)
			if err != nil {
				return fmt.Errorf("-twin: %w", err)
			}
			if tw, err = doall.LoadTwin(data); err != nil {
				return fmt.Errorf("-twin %s: %w", twinPath, err)
			}
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if progress {
			// Progress fires concurrently from worker goroutines in
			// completion order; serialize and keep the meter monotone so a
			// late-arriving lower count never overwrites a higher one.
			var mu sync.Mutex
			shown := 0
			cfg.Progress = func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if done <= shown {
					return
				}
				shown = done
				fmt.Fprintf(errw, "\rsweep: %d/%d cells", done, total)
				if done == total {
					fmt.Fprintln(errw)
				}
			}
		}
		return withProfiles(cpuprofile, memprofile, func() error {
			return writeSweep(ctx, cfg, tw, out, w, errw)
		})
	}

	sc := doall.QuickScale
	switch scale {
	case "quick":
	case "full":
		sc = doall.FullScale
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}

	want := map[string]bool{}
	for _, id := range splitList(only, ",") {
		want[id] = true
	}

	return withProfiles(cpuprofile, memprofile, func() error {
		tables, err := doall.AllExperiments(sc)
		if err != nil {
			return err
		}
		for _, tb := range tables {
			if len(want) > 0 && !want[tb.ID] {
				continue
			}
			if markdown {
				fmt.Fprintln(w, tb.Markdown())
			} else {
				fmt.Fprintln(w, tb.String())
			}
		}
		return nil
	})
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

// runCalibrate fits the analytical twin from recorded sweep reports and
// writes the deterministic TWIN_FIT.json, printing per-group
// goodness-of-fit to stderr.
func runCalibrate(files, out string, w, errw io.Writer) error {
	names := splitList(files, ",")
	if len(names) == 0 {
		return fmt.Errorf("-calibrate: no input reports (-bench)")
	}
	var samples []doall.TwinSample
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var rep doall.SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ss := doall.TwinSamplesFromReport(rep)
		if len(ss) == 0 {
			return fmt.Errorf("%s: no usable cells to calibrate from", name)
		}
		samples = append(samples, ss...)
	}
	tw, err := doall.CalibrateTwin(samples, names)
	if err != nil {
		return err
	}
	enc, err := doall.EncodeTwin(tw)
	if err != nil {
		return err
	}
	for _, g := range tw.Groups {
		fmt.Fprintf(errw, "calibrate: %-10s %-11s n=%-3d work R²=%.4f maxrel=%.1f%% band×=%.2f\n",
			g.Algo, g.Family, g.Work.N, g.Work.R2, 100*g.Work.MaxRelErr, g.Work.Band)
	}
	if out == "" {
		out = "TWIN_FIT.json"
	}
	if out == "-" {
		_, err := w.Write(enc)
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errw, "calibrate: %d samples from %d reports → %s (%d model groups)\n",
		len(samples), len(names), out, len(tw.Groups))
	return nil
}

func writeSweep(ctx context.Context, cfg doall.SweepConfig, tw *doall.Twin, out string, w, errw io.Writer) error {
	// Open the output before burning sweep time: a bad path must fail
	// fast, not after a multi-minute grid.
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Announce the effective execution parallelism before burning grid
	// time: sweep workers × intra-run shards must be read against
	// GOMAXPROCS when interpreting ns_per_run columns.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxP := maxInt(cfg.Ps)
	shardDesc := "1 (sequential)"
	switch {
	case cfg.Shards == doall.ShardsAuto:
		shardDesc = fmt.Sprintf("auto (p=%d resolves to %d)", maxP, doall.ResolveShards(cfg.Shards, maxP))
	case cfg.Shards > 1:
		shardDesc = fmt.Sprintf("%d (p=%d resolves to %d)", cfg.Shards, maxP, doall.ResolveShards(cfg.Shards, maxP))
	}
	fmt.Fprintf(errw, "sweep: gomaxprocs=%d workers=%d shards=%s\n",
		runtime.GOMAXPROCS(0), workers, shardDesc)
	rep, err := doall.NewSweepReportContext(ctx, cfg)
	if err != nil {
		// Interrupted (-timeout, SIGINT): the completed cells are still
		// worth the disk they land on — write the report marked partial
		// and say so, instead of discarding finished work.
		fmt.Fprintf(errw, "sweep interrupted (%v): writing partial report\n", err)
	}
	if tp := rep.TickPhase; tp != nil {
		// Where the sharded ticks' wall-clock went: the serial fraction
		// (a1 + b against the total) bounds the achievable speedup.
		total := tp.A1Seconds + tp.A2Seconds + tp.BSeconds
		if total > 0 {
			fmt.Fprintf(errw, "sweep: tick phases over %d parallel ticks: a1=%.2fs (%.1f%%) a2=%.2fs (%.1f%%) b=%.2fs (%.1f%%)\n",
				tp.Ticks,
				tp.A1Seconds, 100*tp.A1Seconds/total,
				tp.A2Seconds, 100*tp.A2Seconds/total,
				tp.BSeconds, 100*tp.BSeconds/total)
		}
	}
	if tw != nil {
		// Stamp the twin's predicted columns next to the measured ones so
		// the report reads as a side-by-side model-vs-simulation table.
		// Only in-envelope predictions are stamped: outside its calibration
		// box the twin is an extrapolation and stays silent.
		stamped := 0
		for i := range rep.Cells {
			c := &rep.Cells[i]
			if c.Err != "" {
				continue
			}
			adv := c.Adversary
			if adv == "" {
				adv = rep.Adversary
			}
			pred, perr := tw.Predict(doall.TwinQuery{Algo: c.Algo, Adversary: adv, P: c.P, T: c.T, D: c.D, Q: c.Q})
			if perr != nil || !pred.InEnvelope {
				continue
			}
			c.PredWork, c.PredMessages, c.PredSolvedAt = pred.Work, pred.Messages, pred.SolvedAt
			stamped++
		}
		fmt.Fprintf(errw, "sweep: twin stamped predicted columns on %d/%d cells\n", stamped, len(rep.Cells))
	}
	return rep.WriteJSON(w)
}

func splitList(s, sep string) []string {
	var items []string
	for _, it := range strings.Split(s, sep) {
		if it = strings.TrimSpace(it); it != "" {
			items = append(items, it)
		}
	}
	return items
}

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
