package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"doall"
)

// envStamp records the machine and settings a run measured on. It is
// printed on standard output before the result line and written into
// every trace file.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GOMEMLIMIT string  `json:"gomemlimit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func stampEnv(workload string, o options) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOGC:       envOr("GOGC", "100 (default)"),
		GOMEMLIMIT: envOr("GOMEMLIMIT", "off (default)"),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
		Workload:   workload,
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Traced:     o.trace,
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory without running git; outside a git checkout it falls back to
// the module's embedded build version.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "no .git; build " + doall.Version()
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown (" + ref + ")"
}

// memoryBudget returns the bytes this process may use: GOMEMLIMIT when
// set, else the kernel's MemAvailable.
func memoryBudget() (int64, string, error) {
	if lim := debug.SetMemoryLimit(-1); lim != math.MaxInt64 {
		return lim, "GOMEMLIMIT", nil
	}
	kb, err := procField("/proc/meminfo", "MemAvailable:")
	if err != nil {
		return 0, "", err
	}
	return kb << 10, "MemAvailable", nil
}

// memoryGate refuses a workload whose estimated heap does not fit the
// memory budget, so the run fails with a reason instead of being
// OOM-killed.
func memoryGate(cfgs []doall.SweepConfig) error {
	var est int64
	for _, c := range cfgs {
		if b := doall.EstimateSweepMemory(c); b > est {
			est = b
		}
	}
	budget, src, err := memoryBudget()
	if err != nil {
		return fmt.Errorf("memory gate: %w", err)
	}
	if est > budget*9/10 {
		return fmt.Errorf("memory gate: estimated heap %d MiB exceeds 90%% of %s (%d MiB)", est>>20, src, budget>>20)
	}
	return nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}

// procField reads a "Key: <n> kB" line from a /proc file.
func procField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// gcStats is a runtime/metrics snapshot of the counters the per-cell GC
// deltas are taken from.
type gcStats struct {
	allocBytes uint64
	cycles     uint64
	pause      float64 // seconds, from the pause histogram's bucket midpoints
}

var (
	pauseMetric = pickPauseMetric()
	gcSamples   = []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: pauseMetric},
	}
	heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
)

// pickPauseMetric prefers the stop-the-world GC pause histogram of newer
// runtimes and falls back to the older name.
func pickPauseMetric() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}

func readGC() gcStats {
	metrics.Read(gcSamples)
	s := gcStats{allocBytes: gcSamples[0].Value.Uint64(), cycles: gcSamples[1].Value.Uint64()}
	if gcSamples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := gcSamples[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			s.pause += float64(n) * (lo + hi) / 2
		}
	}
	return s
}

func (s gcStats) sub(b gcStats) gcStats {
	return gcStats{allocBytes: s.allocBytes - b.allocBytes, cycles: s.cycles - b.cycles, pause: s.pause - b.pause}
}

func heapObjectBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// heapPeakSampler tracks the largest heap-object size seen while a cell
// runs, polling runtime/metrics every millisecond on its own goroutine.
type heapPeakSampler struct {
	stop chan struct{}
	done chan uint64
	once sync.Once
	peak uint64
}

func startHeapSampler() *heapPeakSampler {
	s := &heapPeakSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapSample[0].Name}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-s.stop:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the peak it saw.
// Calls after the first return the same peak.
func (s *heapPeakSampler) finish() uint64 {
	s.once.Do(func() {
		close(s.stop)
		s.peak = <-s.done
	})
	return s.peak
}
