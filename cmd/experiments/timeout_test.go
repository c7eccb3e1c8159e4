package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"doall"
	"doall/cmd/internal/cli"
)

// An expired -timeout still writes the report — with the cells completed
// so far and "partial": true — instead of discarding finished work.
func TestSweepTimeoutWritesPartialReport(t *testing.T) {
	var out, errw bytes.Buffer
	err := runWithStderr([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "1,2",
		"-timeout", "1ns"}, &out, &errw)
	if err != nil {
		t.Fatalf("timed-out sweep must still succeed, got %v", err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("partial report is not valid JSON: %v\n%s", err, out.Bytes())
	}
	if !rep.Partial {
		t.Fatal("interrupted report not marked partial")
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("partial report names %d cells, want the full grid (2)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Err == "" && c.SolvedAt == 0 {
			t.Fatalf("cell neither ran nor carries the interruption: %+v", c)
		}
	}
	if !strings.Contains(errw.String(), "partial") {
		t.Fatalf("no interruption notice on stderr: %q", errw.String())
	}
}

// A canceled context (the SIGINT path) behaves like -timeout: partial
// report, marked as such.
func TestSweepSigintCancelsAndFlushes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // simulate ^C before the sweep starts
	var out, errw bytes.Buffer
	err := cli.Run(ctx, []string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "1"}, &out, &errw)
	if err != nil {
		t.Fatalf("canceled sweep must still flush, got %v", err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("canceled report not marked partial")
	}
}

// A sweep that finishes inside its budget is indistinguishable from one
// with no budget at all.
func TestSweepTimeoutUnexpiredIsComplete(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"sweep", "-algos", "PaRan1", "-p", "4", "-t", "16", "-d", "1",
		"-timeout", time.Hour.String()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep doall.SweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("complete sweep marked partial")
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell carries error: %+v", c)
		}
	}
}
