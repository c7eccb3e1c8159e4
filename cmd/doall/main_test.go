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

func TestVersion(t *testing.T) {
	var out bytes.Buffer
	if err := cli.Run(context.Background(), []string{"version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != "doall "+doall.Version()+"\n" {
		t.Fatalf("version printed %q", out.String())
	}
}

// TestCommandDispatch: a command line names one subcommand; a missing or
// unknown one prints the usage, and old spellings (bare run flags, the
// experiments -sweep/-version flags, predict's -adv) are not accepted.
func TestCommandDispatch(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"transmogrify"},
		{"-algo", "DA"},
		{"-version"},
		{"experiments", "-sweep"},
		{"experiments", "-calibrate"},
		{"ctl", "predict", "-algo", "DA", "-adv", "fair", "-p", "4", "-t", "16"},
	} {
		var out, errw bytes.Buffer
		if err := cli.Run(context.Background(), args, &out, &errw); err == nil {
			t.Errorf("%q accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q wrote %q to stdout", args, out.String())
		}
		if len(args) < 2 && !strings.Contains(errw.String(), "usage: doall") {
			t.Errorf("%q printed no usage: %q", args, errw.String())
		}
	}
}

func TestContention(t *testing.T) {
	var out bytes.Buffer
	if err := cli.Run(context.Background(), []string{"contention", "-n", "4"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "searched") || strings.Count(out.String(), "π_") != 4 {
		t.Fatalf("search output:\n%s", out.String())
	}
	out.Reset()
	if err := cli.Run(context.Background(), []string{"contention", "-n", "16", "-dsweep"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	// d = 1, 2, 4, 8, 16 under a two-line header.
	if lines := strings.Count(out.String(), "\n"); lines != 7 {
		t.Fatalf("d-sweep printed %d lines, want 7:\n%s", lines, out.String())
	}
}
