// Command doall is the front door of the Do-All simulator: one binary
// whose subcommands cover single runs, the paper's experiment tables,
// sweep grids, Section 4's schedule search, and the job daemon with its
// client. Algorithms and adversaries resolve through the open registries,
// so -algo and -adversary accept anything registered, including composed
// adversary expressions.
//
// Usage:
//
//	doall [-cpuprofile file] [-memprofile file] <command> [flags]
//
// Commands:
//
//	run          one scenario vs the paper's bounds
//	             doall run -algo DA -p 16 -t 1024 -d 8 -q 2 -adversary fair
//	             doall run -algo PaRan1 -p 8 -t 256 -d 4 -trials 10
//	             doall run -algo PaRan2 -p 8 -t 256 -d 4 -adversary 'crashing(slow-set(fair),crash=0@5)'
//	             doall run -spec '{"algorithm":"DA","p":16,"t":1024,"d":8}'
//	experiments  the E1–E10 tables (internal/scenario/experiments.go)
//	             doall experiments [-scale full] [-markdown] [-only E5,E6]
//	sweep        an (algorithm, adversary, p, t, d) grid as a BENCH_*.json report
//	             doall sweep -algos PaRan1,DA -p 64,256 -t 1024 -d 1,8,64 -trials 3 -out BENCH_N.json
//	             doall sweep -advs 'fair;crashing;slow-set(period=8)' -progress
//	calibrate    fit the analytical twin from recorded sweep reports
//	             doall calibrate [-out TWIN_FIT.json] [BENCH_0.json ...]
//	contention   Section 4's schedule search and d-contention sweep
//	             doall contention -n 6 -k 6 -restarts 500
//	             doall contention -n 256 -k 16 -dsweep
//	serve        the job daemon (HTTP JSON API, checkpoint log, metrics)
//	             doall serve -listen 127.0.0.1:0 -checkpoint doalld.wal -workers 8 -maxmem 4g
//	             doall serve -twin TWIN_FIT.json
//	ctl          the daemon's client
//	             doall ctl submit -f sweep.json -wait
//	             doall ctl results j000001 -o cells.ndjson
//	             doall ctl predict -algo DA -p 1024 -t 65536 -d 8
//	version      the build version
//
// -advs takes a ';'-separated list because expressions such as
// crashing(crash=0@3,crash=1@5) contain commas. The profiling flags wrap
// whichever command runs:
//
//	doall -cpuprofile cpu.out -memprofile mem.out sweep
//	go tool pprof cpu.out
package main

import (
	"context"
	"fmt"
	"os"

	"doall/cmd/internal/cli"
)

func main() {
	if err := cli.Run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "doall:", err)
		os.Exit(1)
	}
}
