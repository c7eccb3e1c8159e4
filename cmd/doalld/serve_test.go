package main

import (
	"bufio"
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"doall"
	"doall/cmd/internal/cli"
)

// run drives `doall serve args...` until ctx ends (the SIGTERM path).
func run(ctx context.Context, args []string, w, errw io.Writer) error {
	return cli.Run(ctx, append([]string{"serve"}, args...), w, errw)
}

func TestBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-maxmem", "lots"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad -maxmem accepted")
	}
	if err := run(context.Background(), []string{"-listen", "256.0.0.1:bad"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad -listen accepted")
	}
}

// syncWriter lets the test read daemon stdout lines while the daemon
// goroutine is still writing.
type syncWriter struct {
	mu sync.Mutex
	pw *io.PipeWriter
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pw.Write(p)
}

// Full daemon lifecycle in-process: boot on an ephemeral port, submit a
// job over HTTP, stream its results, shut down via context cancellation
// (the SIGTERM path), and boot again on the same checkpoint.
func TestDaemonServeSubmitShutdownResume(t *testing.T) {
	wal := t.TempDir() + "/doalld.wal"
	jobID := ""
	doc := []byte(`{"algos":["PaRan1"],"p":[4,8],"t":[16],"d":[1,2],"trials":2}`)

	for round := 0; round < 2; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		out := &syncWriter{pw: pw}
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, []string{"-listen", "127.0.0.1:0", "-workers", "1", "-checkpoint", wal}, out, io.Discard)
			pw.Close()
		}()

		// Scrape the assigned address from the banner line.
		var addr string
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr = "http://" + strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		if addr == "" {
			t.Fatalf("round %d: no listen banner (daemon err: %v)", round, <-errc)
		}
		go io.Copy(io.Discard, pr) // keep the pipe drained

		c := &doall.ServiceClient{Base: addr}
		cctx, cdone := context.WithTimeout(context.Background(), 30*time.Second)

		if round == 0 {
			st, err := c.SubmitDoc(cctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			jobID = st.ID
			// Let at least one cell land in the checkpoint, then "SIGTERM".
			for {
				st, err = c.Status(cctx, jobID)
				if err != nil {
					t.Fatal(err)
				}
				if st.CellsDone >= 1 || st.State.Terminal() {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		} else {
			// Round 1: the job resumed from the checkpoint; follow it home.
			st, err := c.WaitDone(cctx, jobID, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != doall.JobDone || st.CellsDone != 4 {
				t.Fatalf("resumed job: %+v", st)
			}
			n := 0
			tr, err := c.Results(cctx, jobID, func(doall.ResultCell) error { n++; return nil })
			if err != nil || !tr.Done || n != 4 {
				t.Fatalf("results after resume: %+v, %d cells, %v", tr, n, err)
			}
		}

		cancel() // the SIGINT/SIGTERM path
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("round %d: daemon exited with %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: daemon did not shut down", round)
		}
		cdone()
	}
}

// TestDaemonTwinFlag boots the daemon with the checked-in TWIN_FIT.json
// and exercises POST /v1/predict both ways: in-envelope answers come
// from the twin, alien shapes fall back to a real simulation.
func TestDaemonTwinFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-twin", t.TempDir() + "/nope.json"}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing -twin file accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	out := &syncWriter{pw: pw}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-listen", "127.0.0.1:0", "-workers", "1", "-twin", "../../TWIN_FIT.json"}, out, io.Discard)
		pw.Close()
	}()
	var addr string
	loaded := false
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = "http://" + strings.TrimSpace(line[i+len("listening on "):])
		}
		if strings.Contains(line, "analytical twin loaded") {
			loaded = true
			break
		}
	}
	if addr == "" || !loaded {
		t.Fatalf("no listen/twin banner (daemon err: %v)", <-errc)
	}
	go io.Copy(io.Discard, pr)

	c := &doall.ServiceClient{Base: addr}
	cctx, cdone := context.WithTimeout(context.Background(), 30*time.Second)
	defer cdone()

	// A shape inside the recorded BENCH grids: answered analytically.
	res, err := c.Predict(cctx, doall.TwinQuery{Algo: "DA", P: 64, T: 1024, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "twin" || !res.Prediction.InEnvelope || res.Prediction.Work <= 0 {
		t.Fatalf("in-envelope predict: %+v", res)
	}

	// A tiny alien shape: simulated.
	res, err = c.Predict(cctx, doall.TwinQuery{Algo: "DA", P: 4, T: 16, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "fallback" || res.Prediction.Work <= 0 {
		t.Fatalf("out-of-envelope predict: %+v", res)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
