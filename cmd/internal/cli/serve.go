package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"doall"
)

// runServe is the job daemon: it accepts scenario and sweep jobs over a
// local HTTP JSON API, runs them cell by cell on a shared fleet of
// reusable simulation engines, streams per-cell results as they complete,
// and checkpoints progress to a write-ahead log so jobs survive restarts.
//
// API: POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/results (live NDJSON), DELETE /v1/jobs/{id},
// POST /v1/predict, POST /v1/drain, GET /healthz, GET /metrics,
// GET /v1/version.
//
// SIGINT/SIGTERM (or ctx ending) shut down gracefully: admission stops,
// in-flight cells finish and are checkpointed, result streams end with an
// interrupted trailer, and queued work resumes on the next start with the
// same -checkpoint path. A second signal exits immediately.
func runServe(ctx context.Context, args []string, w, errw io.Writer) error {
	var (
		cfg                              doall.ServiceConfig
		listen, maxmem, shards, twinPath string
	)
	fs := newFlagSet("serve", errw)
	fs.StringVar(&listen, "listen", "127.0.0.1:7117", "address to serve the API on (host:0 picks an ephemeral port)")
	fs.IntVar(&cfg.Workers, "workers", 0, "engine fleet size: cells simulated concurrently (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueLimit, "queue", 64, "max jobs admitted but not yet finished")
	fs.IntVar(&cfg.MaxCells, "maxcells", 0, "max cells in one job's grid (0 = default 1048576)")
	fs.StringVar(&cfg.Checkpoint, "checkpoint", "", "write-ahead checkpoint log path; jobs resume from it on restart (empty = no persistence)")
	fs.BoolVar(&cfg.Fsync, "fsync", false, "fsync the checkpoint log per record (survives machine crashes, not just process deaths)")
	fs.StringVar(&maxmem, "maxmem", "", "reject sweep jobs whose estimated memory exceeds this budget (e.g. 4g, 512m)")
	fs.DurationVar(&cfg.DefaultTimeout, "timeout", 0, "default wall-clock budget per job (0 = unlimited; jobs may declare their own)")
	fs.StringVar(&shards, "shards", "1", "default intra-run parallel shards per cell — a count, or 'auto'; jobs may declare their own (results are identical at any value)")
	fs.StringVar(&twinPath, "twin", "", "calibrated analytical-twin fit (TWIN_FIT.json); POST /v1/predict answers in-envelope queries from it without simulating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if twinPath != "" {
		data, err := os.ReadFile(twinPath)
		if err != nil {
			return fmt.Errorf("-twin: %w", err)
		}
		if cfg.Twin, err = doall.LoadTwin(data); err != nil {
			return fmt.Errorf("-twin %s: %w", twinPath, err)
		}
	}
	var err error
	if cfg.Shards, err = parseShards(shards); err != nil {
		return err
	}
	if maxmem != "" {
		if cfg.MaxMem, err = ParseBytes(maxmem); err != nil {
			return fmt.Errorf("-maxmem: %w", err)
		}
	}

	ctx, stop := signalContext(ctx)
	defer stop()
	svc, err := doall.NewService(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		svc.Close()
		return err
	}
	// The addr line is machine-readable on purpose: with -listen host:0,
	// scripts (and the CI smoke test) scrape the assigned port from it.
	fmt.Fprintf(w, "doalld %s listening on %s\n", doall.Version(), ln.Addr())
	if cfg.Checkpoint != "" {
		if n := svc.ActiveJobs(); n > 0 {
			fmt.Fprintf(w, "doalld: resumed %d unfinished job(s) from %s\n", n, cfg.Checkpoint)
		}
	}
	if cfg.Twin != nil {
		fmt.Fprintf(w, "doalld: analytical twin loaded from %s (%d model groups)\n", twinPath, len(cfg.Twin.Groups))
	}

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: admission stops, in-flight cells finish and
	// checkpoint, then the HTTP server drains.
	fmt.Fprintln(w, "doalld: shutting down — finishing in-flight cells (signal again to kill)")
	svc.Drain()
	closeErr := svc.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	fmt.Fprintln(w, "doalld: checkpointed and stopped")
	return closeErr
}
