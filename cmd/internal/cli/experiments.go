package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"doall"
)

// runExperiments regenerates every experiment in the E1–E10 index
// (AllExperiments) and prints the result tables, optionally as Markdown.
func runExperiments(_ context.Context, args []string, w, errw io.Writer) error {
	fs := newFlagSet("experiments", errw)
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	markdown := fs.Bool("markdown", false, "emit Markdown instead of plain text")
	only := fs.String("only", "", "comma-separated experiment ids to run (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := doall.QuickScale
	switch *scale {
	case "quick":
	case "full":
		sc = doall.FullScale
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	want := map[string]bool{}
	for _, id := range splitList(*only, ",") {
		want[id] = true
	}
	tables, err := doall.AllExperiments(sc)
	if err != nil {
		return err
	}
	for _, tb := range tables {
		if len(want) > 0 && !want[tb.ID] {
			continue
		}
		if *markdown {
			fmt.Fprintln(w, tb.Markdown())
		} else {
			fmt.Fprintln(w, tb.String())
		}
	}
	return nil
}

// Sweep is the parsed sweep command line.
type Sweep struct {
	// Config is the validated grid with the -workers execution knob set.
	Config doall.SweepConfig
	// Out is the report path (empty = the command's output stream).
	Out string
	// Twin is the path of a calibrated fit whose predictions are stamped
	// next to the measured cells.
	Twin string
	// Progress prints a live cells-completed meter; Timeout is the
	// wall-clock budget (0 = unlimited).
	Progress bool
	Timeout  time.Duration
}

// ParseSweep parses the sweep command's flags into a grid and checks it
// with SweepSpec.Validate, the check the daemon applies to sweep jobs,
// then against the -maxmem budget.
func ParseSweep(args []string, errw io.Writer) (Sweep, error) {
	var (
		s                       Sweep
		spec                    doall.SweepSpec
		algos, ps, ts, ds, advs string
		shards, maxmem          string
		workers                 int
	)
	fs := newFlagSet("sweep", errw)
	fs.StringVar(&algos, "algos", "AllToAll,DA,PaRan1,PaDet", "comma-separated algorithms")
	fs.StringVar(&ps, "p", "16,64,256", "comma-separated processor counts")
	fs.StringVar(&ts, "t", "256,1024", "comma-separated task counts")
	fs.StringVar(&ds, "d", "1,8,64", "comma-separated delay bounds")
	fs.StringVar(&spec.Adversary, "adv", "fair", "adversary expression ("+strings.Join(doall.RegisteredAdversaries(), ", ")+")")
	fs.StringVar(&advs, "advs", "", "';'-separated adversary expressions (adds a grid axis; overrides -adv)")
	fs.IntVar(&spec.Trials, "trials", 1, "runs per cell (averaged)")
	fs.IntVar(&workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.Int64Var(&spec.BaseSeed, "seed", 0, "base seed for per-cell seed derivation")
	fs.BoolVar(&spec.Theory, "theory", false, "add LowerBound/DAUpperBound/PAUpperBound theory columns per cell")
	fs.StringVar(&maxmem, "maxmem", "", "fail fast if the estimated per-sweep memory exceeds this budget (e.g. 4g, 512m)")
	fs.StringVar(&shards, "shards", "1", "intra-run parallel shards per cell — a count, or 'auto' (results are identical at any value; only ns_per_run moves)")
	fs.IntVar(&spec.Q, "q", 0, "DA progress-tree arity (0 = default binary tree; the DA theory column's ε follows it)")
	fs.StringVar(&s.Out, "out", "", "write the JSON report to this file (default stdout)")
	fs.StringVar(&s.Twin, "twin", "", "stamp pred_work/pred_messages/pred_solved_at columns from this calibrated twin fit (in-envelope cells only)")
	fs.BoolVar(&s.Progress, "progress", false, "print a live cells-completed meter to stderr")
	fs.DurationVar(&s.Timeout, "timeout", 0, "wall-clock budget; on expiry the report is written with the cells completed so far, marked partial (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	var err error
	if spec.Shards, err = parseShards(shards); err != nil {
		return s, err
	}
	spec.Algos = splitList(algos, ",")
	if advs != "" {
		spec.Adversaries = splitList(advs, ";")
	}
	if spec.Ps, err = parseInts(ps); err != nil {
		return s, fmt.Errorf("-p: %w", err)
	}
	if spec.Ts, err = parseInts(ts); err != nil {
		return s, fmt.Errorf("-t: %w", err)
	}
	dvals, err := parseInts(ds)
	if err != nil {
		return s, fmt.Errorf("-d: %w", err)
	}
	for _, d := range dvals {
		spec.Ds = append(spec.Ds, int64(d))
	}
	if err := spec.Validate(); err != nil {
		return s, err
	}
	s.Config = spec.Config()
	s.Config.Workers = workers
	// Pre-estimate per-worker memory for the largest grid shape and fail
	// fast with a clear error instead of OOMing mid-sweep.
	if maxmem != "" {
		budget, err := ParseBytes(maxmem)
		if err != nil {
			return s, fmt.Errorf("-maxmem: %w", err)
		}
		if est := doall.EstimateSweepMemory(s.Config); est > budget {
			return s, fmt.Errorf(
				"estimated sweep memory %s (largest shape p=%d t=%d × concurrent workers) exceeds -maxmem %s; shrink the grid, lower -workers, or raise the budget",
				formatBytes(est), maxInt(spec.Ps), maxInt(spec.Ts), formatBytes(budget))
		}
	}
	return s, nil
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

// runSweep fans an (algorithm, adversary, p, t, d) grid across workers
// with deterministic per-cell seeds and writes the JSON perf report (the
// BENCH_*.json schema). SIGINT, SIGTERM or an expired -timeout stop
// in-flight cells at their next trial boundary; the report is still
// written, marked partial.
func runSweep(ctx context.Context, args []string, w, errw io.Writer) error {
	s, err := ParseSweep(args, errw)
	if err != nil {
		return err
	}
	var tw *doall.Twin
	if s.Twin != "" {
		// Load the fit before burning grid time: a bad path or stale
		// schema fails fast.
		data, err := os.ReadFile(s.Twin)
		if err != nil {
			return fmt.Errorf("-twin: %w", err)
		}
		if tw, err = doall.LoadTwin(data); err != nil {
			return fmt.Errorf("-twin %s: %w", s.Twin, err)
		}
	}
	ctx, stop := signalContext(ctx)
	defer stop()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	cfg := s.Config
	if s.Progress {
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
	// Open the output before burning sweep time: a bad path must fail
	// fast, not after a multi-minute grid.
	if s.Out != "" {
		f, err := os.Create(s.Out)
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

// runCalibrate fits the analytical twin from recorded sweep reports (the
// arguments, default the checked-in BENCH_0..3.json) and writes the
// deterministic TWIN_FIT.json, printing per-group goodness-of-fit to
// stderr.
func runCalibrate(_ context.Context, args []string, w, errw io.Writer) error {
	fs := newFlagSet("calibrate", errw)
	out := fs.String("out", "TWIN_FIT.json", `write the fit to this file ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"BENCH_0.json", "BENCH_1.json", "BENCH_2.json", "BENCH_3.json"}
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
	if *out == "-" {
		_, err := w.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errw, "calibrate: %d samples from %d reports → %s (%d model groups)\n",
		len(samples), len(names), *out, len(tw.Groups))
	return nil
}
