package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"doall"
)

func ctlUsage(errw io.Writer) {
	fmt.Fprintln(errw, `usage: doall ctl [-addr URL] <command> [flags]

commands:
  submit   submit a job document (-f file, "-" for stdin; -priority, -timeout, -wait)
  status   show one job: doall ctl status <id>
  results  stream a job's cells as NDJSON: doall ctl results <id> [-o file]
  cancel   cancel a job: doall ctl cancel <id>
  list     list all jobs
  predict  ask the daemon's analytical twin for a cost prediction:
           doall ctl predict -algo DA [-adversary fair] -p 1024 -t 65536 [-d 8] [-q 2]
  drain    stop the daemon's admission (running jobs finish)
  version  print client and daemon versions

The daemon address defaults to $DOALLD_ADDR, then http://127.0.0.1:7117.
A job document is {"scenario": {...}} or {"sweep": {...}} with optional
"priority" and "timeout" ("30s"), a bare scenario document, or a bare
sweep spec.`)
}

// runCtl is the daemon's stateless client: every command is one or two
// HTTP calls against the daemon's JSON API.
func runCtl(ctx context.Context, args []string, w, errw io.Writer) error {
	defaultAddr := os.Getenv("DOALLD_ADDR")
	if defaultAddr == "" {
		defaultAddr = "http://127.0.0.1:7117"
	}
	fs := newFlagSet("ctl", errw)
	fs.Usage = func() { ctlUsage(errw) }
	addr := fs.String("addr", defaultAddr, "daemon base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		ctlUsage(errw)
		return fmt.Errorf("no ctl command")
	}
	ctx, stop := signalContext(ctx)
	defer stop()
	c := &doall.ServiceClient{Base: *addr}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return ctlSubmit(ctx, c, rest, w, errw)
	case "status":
		return ctlStatus(ctx, c, rest, w)
	case "results":
		return ctlResults(ctx, c, rest, w, errw)
	case "cancel":
		return ctlCancel(ctx, c, rest, w)
	case "list":
		return ctlList(ctx, c, w)
	case "predict":
		return ctlPredict(ctx, c, rest, w, errw)
	case "drain":
		n, err := c.Drain(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "draining; %d job(s) still open\n", n)
		return nil
	case "version":
		fmt.Fprintln(w, "client:", doall.Version())
		v, err := c.Version(ctx)
		if err != nil {
			return fmt.Errorf("daemon unreachable at %s: %w", *addr, err)
		}
		fmt.Fprintln(w, "daemon:", v)
		return nil
	default:
		ctlUsage(errw)
		return fmt.Errorf("unknown ctl command %q", cmd)
	}
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func ctlSubmit(ctx context.Context, c *doall.ServiceClient, args []string, w, errw io.Writer) error {
	fs := newFlagSet("ctl submit", errw)
	file := fs.String("f", "", `job document file ("-" = stdin)`)
	priority := fs.Int("priority", 0, "queue priority (higher runs first; overrides the document)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the job (overrides the document)")
	wait := fs.Bool("wait", false, "block until the job is terminal and exit non-zero if it failed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("submit: -f required (a job document, or \"-\" for stdin)")
	}
	var (
		doc []byte
		err error
	)
	if *file == "-" {
		doc, err = io.ReadAll(os.Stdin)
	} else {
		doc, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	// Re-parse locally so flag overrides compose with any form of
	// document, and malformed jobs fail client-side with the same error
	// the daemon would give.
	job, err := doall.ParseJob(doc)
	if err != nil {
		return err
	}
	if *priority != 0 {
		job.Priority = *priority
	}
	if *timeout != 0 {
		job.Timeout = doall.JobDuration(*timeout)
	}
	st, err := c.Submit(ctx, job)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(w, st)
	}
	fmt.Fprintf(errw, "submitted %s (%d cells); waiting\n", st.ID, st.CellsTotal)
	st, err = c.WaitDone(ctx, st.ID, 200*time.Millisecond)
	if err != nil {
		return err
	}
	if err := printJSON(w, st); err != nil {
		return err
	}
	if st.State != doall.JobDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Err)
	}
	return nil
}

func ctlStatus(ctx context.Context, c *doall.ServiceClient, args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("status: want exactly one job id")
	}
	st, err := c.Status(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(w, st)
}

func ctlResults(ctx context.Context, c *doall.ServiceClient, args []string, w, errw io.Writer) error {
	// Accept "results <id> -o file" as well as "results -o file <id>".
	id := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	fs := newFlagSet("ctl results", errw)
	out := fs.String("o", "", "write the NDJSON stream to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case id == "" && fs.NArg() == 1:
		id = fs.Arg(0)
	case id != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("results: want exactly one job id")
	}
	dst := w
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	tr, err := c.Results(ctx, id, func(rc doall.ResultCell) error {
		return enc.Encode(rc)
	})
	if err != nil {
		return err
	}
	if err := enc.Encode(tr); err != nil {
		return err
	}
	if tr.Interrupted {
		return fmt.Errorf("stream interrupted (daemon shutting down); re-run after restart to resume")
	}
	return nil
}

func ctlPredict(ctx context.Context, c *doall.ServiceClient, args []string, w, errw io.Writer) error {
	fs := newFlagSet("ctl predict", errw)
	sc := bindScenario(fs, doall.Scenario{D: 1})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("predict: unexpected argument %q", fs.Arg(0))
	}
	if sc.Algorithm == "" || sc.P < 1 || sc.T < 1 {
		return fmt.Errorf("predict: -algo, -p, and -t are required")
	}
	res, err := c.Predict(ctx, doall.TwinQuery{Algo: sc.Algorithm, Adversary: sc.Adversary, P: sc.P, T: sc.T, D: sc.D, Q: sc.Q})
	if err != nil {
		return err
	}
	return printJSON(w, res)
}

func ctlCancel(ctx context.Context, c *doall.ServiceClient, args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel: want exactly one job id")
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(w, st)
}

func ctlList(ctx context.Context, c *doall.ServiceClient, w io.Writer) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Fprintln(w, "no jobs")
		return nil
	}
	fmt.Fprintf(w, "%-10s %-9s %-9s %5s  %11s  %s\n", "ID", "KIND", "STATE", "PRIO", "CELLS", "ERR")
	for _, j := range jobs {
		fmt.Fprintf(w, "%-10s %-9s %-9s %5d  %5d/%5d  %s\n",
			j.ID, j.Kind, j.State, j.Priority, j.CellsDone, j.CellsTotal, j.Err)
	}
	return nil
}
