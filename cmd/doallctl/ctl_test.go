package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doall"
	"doall/cmd/internal/cli"
)

// newDaemon stands up a real in-process service behind httptest and
// returns its base URL.
func newDaemon(t *testing.T, workers int) string {
	t.Helper()
	svc, err := doall.NewService(doall.ServiceConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return ts.URL
}

// run drives `doall ctl args...`.
func run(ctx context.Context, args []string, w, errw io.Writer) error {
	return cli.Run(ctx, append([]string{"ctl"}, args...), w, errw)
}

func ctl(t *testing.T, addr string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(context.Background(), append([]string{"-addr", addr}, args...), &out, &strings.Builder{})
	return out.String(), err
}

func TestUnknownCommand(t *testing.T) {
	if _, err := ctl(t, "http://127.0.0.1:1", "transmogrify"); err == nil {
		t.Fatal("unknown command accepted")
	}
	var errw strings.Builder
	if err := run(context.Background(), nil, &strings.Builder{}, &errw); err == nil {
		t.Fatal("no command accepted")
	} else if !strings.Contains(errw.String(), "usage:") {
		t.Fatalf("no usage printed: %q", errw.String())
	}
}

func TestSubmitWaitStatusResultsList(t *testing.T) {
	addr := newDaemon(t, 2)
	dir := t.TempDir()
	jobFile := filepath.Join(dir, "job.json")
	doc := `{"sweep":{"algos":["PaRan1"],"p":[4,8],"t":[16],"d":[1,2]},"timeout":"5m"}`
	if err := os.WriteFile(jobFile, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := ctl(t, addr, "submit", "-f", jobFile, "-wait")
	if err != nil {
		t.Fatal(err)
	}
	var st doall.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit -wait printed %q: %v", out, err)
	}
	if st.State != doall.JobDone || st.CellsDone != 4 {
		t.Fatalf("job after -wait: %+v", st)
	}

	out, err = ctl(t, addr, "status", st.ID)
	if err != nil || !strings.Contains(out, `"state": "done"`) {
		t.Fatalf("status: %q, %v", out, err)
	}

	resFile := filepath.Join(dir, "cells.ndjson")
	if _, err := ctl(t, addr, "results", st.ID, "-o", resFile); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(resFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 { // 4 cells + trailer
		t.Fatalf("results wrote %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[4], `"done":true`) {
		t.Fatalf("last line is not a done trailer: %s", lines[4])
	}

	out, err = ctl(t, addr, "list")
	if err != nil || !strings.Contains(out, st.ID) {
		t.Fatalf("list: %q, %v", out, err)
	}
}

func TestCancelAndDrain(t *testing.T) {
	addr := newDaemon(t, -1) // no fleet: jobs stay queued
	dir := t.TempDir()
	jobFile := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(jobFile, []byte(`{"algos":["DA"],"p":[4],"t":[16],"d":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, addr, "submit", "-f", jobFile, "-priority", "7")
	if err != nil {
		t.Fatal(err)
	}
	var st doall.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatal(err)
	}
	if st.Priority != 7 {
		t.Fatalf("-priority override lost: %+v", st)
	}

	out, err = ctl(t, addr, "cancel", st.ID)
	if err != nil || !strings.Contains(out, `"state": "canceled"`) {
		t.Fatalf("cancel: %q, %v", out, err)
	}

	if _, err := ctl(t, addr, "drain"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, addr, "submit", "-f", jobFile); err == nil {
		t.Fatal("submit after drain succeeded")
	}

	// version against a live daemon reports both sides.
	out, err = ctl(t, addr, "version")
	if err != nil || !strings.Contains(out, "client:") || !strings.Contains(out, "daemon:") {
		t.Fatalf("version: %q, %v", out, err)
	}
}

func TestSubmitRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"nonsense":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Malformed documents fail client-side — no daemon needed.
	if _, err := ctl(t, "http://127.0.0.1:1", "submit", "-f", bad); err == nil {
		t.Fatal("malformed job accepted")
	}
	if _, err := ctl(t, "http://127.0.0.1:1", "submit"); err == nil {
		t.Fatal("submit without -f accepted")
	}
}

// newTwinDaemon stands up a daemon carrying a small calibrated twin
// whose DA/fair envelope is p∈[16,64], t∈[256,1024], d∈[1,8].
func newTwinDaemon(t *testing.T) string {
	t.Helper()
	var samples []doall.TwinSample
	for _, p := range []int{16, 64} {
		for _, tt := range []int{256, 1024} {
			for _, d := range []int64{1, 8} {
				samples = append(samples, doall.TwinSample{
					Algo: "DA", Family: "fair", P: p, T: tt, D: d,
					Work: float64(p * tt), Messages: float64(p), SolvedAt: float64(tt),
				})
			}
		}
	}
	tw, err := doall.CalibrateTwin(samples, []string{"synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := doall.NewService(doall.ServiceConfig{Workers: 1, Twin: tw})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return ts.URL
}

func TestPredictCommand(t *testing.T) {
	addr := newTwinDaemon(t)

	out, err := ctl(t, addr, "predict", "-algo", "DA", "-p", "32", "-t", "512", "-d", "4")
	if err != nil {
		t.Fatal(err)
	}
	var res doall.TwinPredictResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("predict output not JSON: %v\n%s", err, out)
	}
	if res.Mode != "twin" || !res.Prediction.InEnvelope || res.Prediction.Work <= 0 {
		t.Fatalf("in-envelope predict: %+v", res)
	}

	// Out-of-envelope shapes come back mode=fallback, answered by one
	// real bounded simulation.
	out, err = ctl(t, addr, "predict", "-algo", "PaRan1", "-p", "4", "-t", "16")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("predict output not JSON: %v\n%s", err, out)
	}
	if res.Mode != "fallback" || res.Prediction.Work <= 0 {
		t.Fatalf("out-of-envelope predict: %+v", res)
	}

	// Flag validation is client-side and fast.
	if _, err := ctl(t, addr, "predict", "-p", "16", "-t", "256"); err == nil {
		t.Fatal("predict without -algo accepted")
	}
	if _, err := ctl(t, addr, "predict", "-algo", "DA", "-p", "16", "-t", "256", "stray"); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	// Server-side rejections surface as errors.
	if _, err := ctl(t, addr, "predict", "-algo", "NoSuchAlgo", "-p", "16", "-t", "256"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
