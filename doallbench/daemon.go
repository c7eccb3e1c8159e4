package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"doall"
)

// daemonWorkload is a closed loop of jobs over HTTP to an in-process
// doall daemon: one client sends each job as soon as the previous job's
// result stream has ended, cycle after cycle of the job mix.
type daemonWorkload struct {
	kinds      []doall.SweepConfig // one scenario job kind per cell; BaseSeed is an offset
	sweep      doall.SweepSpec     // the small sweep job of the mix
	sweepEvery int                 // every sweepEvery-th job is a sweep job
	warm       doall.SweepSpec     // the set-up's warm-up job
}

// daemonMix runs the grids' kinds of cells through the daemon's HTTP
// API, checkpoint log, NDJSON streaming and observed engine path.
func daemonMix() daemonWorkload {
	algos := []string{"DA", "PaRan1", "PaRan2"}
	advs := []string{"fair", "crashing"}
	ts := []int{1 << 14, 1 << 16}
	return daemonWorkload{
		// p=1024 jobs come twice as often as p=256 ones (the second copy
		// under other seeds), so the latency median and p90 fall inside
		// clusters of similar jobs (DA and PaRan at p=1024) instead of in
		// the gap between the small and the large jobs.
		kinds: []doall.SweepConfig{
			{Algos: algos, Adversaries: advs, Ps: []int{256}, Ts: ts, Ds: []int64{8}},
			{Algos: algos, Adversaries: advs, Ps: []int{1024}, Ts: ts, Ds: []int64{8}},
			{Algos: algos, Adversaries: advs, Ps: []int{1024}, Ts: ts, Ds: []int64{8}, BaseSeed: 1},
		},
		sweep: doall.SweepSpec{
			Algos: []string{"DA", "PaRan2"}, Ps: []int{256}, Ts: []int{1 << 12}, Ds: []int64{8},
		},
		sweepEvery: 10,
		warm: doall.SweepSpec{
			Algos: []string{"DA", "PaRan1", "PaRan2"}, Ps: []int{256}, Ts: []int{1 << 12}, Ds: []int64{8},
		},
	}
}

// plannedJob is one job of the mix.
type plannedJob struct {
	job   doall.Job
	specs []doall.Scenario // the job's cells, in the daemon's plan order
}

// cycle draws one cycle of the job mix: every scenario kind once, in
// seeded order, with a sweep job at every sweepEvery-th position.
func (w daemonWorkload) cycle(rng *rand.Rand, seed int64) []plannedJob {
	var specs []doall.Scenario
	for _, k := range w.kinds {
		k.BaseSeed += seed
		specs = append(specs, k.Specs()...)
	}
	sweep := w.sweep
	sweep.BaseSeed = seed
	sweepSpecs := sweep.Config().Specs()
	var jobs []plannedJob
	for _, i := range rng.Perm(len(specs)) {
		if (len(jobs)+1)%w.sweepEvery == 0 {
			s := sweep
			jobs = append(jobs, plannedJob{job: doall.Job{Sweep: &s}, specs: sweepSpecs})
		}
		sc := specs[i]
		jobs = append(jobs, plannedJob{job: doall.Job{Scenario: &sc}, specs: []doall.Scenario{sc}})
	}
	return jobs
}

// daemon is an in-process doall service behind a loopback HTTP server.
type daemon struct {
	svc       *doall.Service
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *doall.ServiceClient
	wal       string
}

// startDaemon builds the service (checkpoint log in dir, fsync off),
// serves it on a loopback port and waits for the first healthy /healthz.
func startDaemon(ctx context.Context, dir string, workers int) (*daemon, error) {
	wal := filepath.Join(dir, "checkpoint.ndjson")
	svc, err := doall.NewService(doall.ServiceConfig{Workers: workers, Shards: 1, Checkpoint: wal})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1),
		transport: &http.Transport{}, wal: wal,
	}
	d.client = &doall.ServiceClient{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.transport}}
	go func() { d.served <- d.srv.Serve(ln) }()
	for {
		ok, _, err := d.client.Health(ctx)
		if err == nil && ok {
			return d, nil
		}
		if ctx.Err() != nil {
			d.close()
			return nil, fmt.Errorf("daemon never became healthy: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the service (releasing result streams), then the HTTP
// server, and waits for both.
func (d *daemon) close() error {
	err := d.svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e := d.srv.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	d.transport.CloseIdleConnections()
	return err
}

func (d *daemon) walBytes() int64 {
	fi, err := os.Stat(d.wal)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// jobRec is one job as the client saw it.
type jobRec struct {
	plan                           *plannedJob
	due, sent, submitted, received time.Time
	status                         doall.JobStatus // traced runs: fetched after the trailer
	cells                          []doall.ResultCell
	err                            error
}

func (r jobRec) latency() time.Duration { return r.received.Sub(r.due) }

// runJob submits one job and follows its result stream to the trailer.
func runJob(ctx context.Context, c *doall.ServiceClient, pj *plannedJob, due time.Time, traced bool) jobRec {
	r := jobRec{plan: pj, due: due, sent: time.Now()}
	st, err := c.Submit(ctx, pj.job)
	r.submitted = time.Now()
	if err != nil {
		r.err = fmt.Errorf("submit refused: %w", err)
		return r
	}
	tr, err := c.Results(ctx, st.ID, func(rc doall.ResultCell) error {
		r.cells = append(r.cells, rc)
		return nil
	})
	r.received = time.Now()
	switch {
	case err != nil:
		r.err = fmt.Errorf("job %s results: %w", st.ID, err)
	case !tr.Done || tr.State != doall.JobDone || len(r.cells) != len(pj.specs):
		r.err = fmt.Errorf("job %s ended %s with %d/%d cells: %s", st.ID, tr.State, len(r.cells), len(pj.specs), tr.Err)
	case traced:
		if r.status, err = c.Status(ctx, st.ID); err != nil {
			r.err = fmt.Errorf("job %s status: %w", st.ID, err)
		}
	}
	return r
}

// segment is one closed-loop run against the daemon.
type segment struct {
	recs       []jobRec
	start, end time.Time
	walBytes   int64
}

func (s segment) wall() time.Duration { return s.end.Sub(s.start) }

// runSegment sends whole cycles of the job mix back to back from one
// client, each job due as soon as the previous one's stream has ended:
// at least one cycle, and another only while the mean cycle so far
// predicts it ends within dur.
func runSegment(ctx context.Context, d *daemon, w daemonWorkload, rng *rand.Rand, seed int64, dur time.Duration, traced bool) segment {
	s := segment{start: time.Now()}
	w0 := d.walBytes()
	for cycles := 1; ; cycles++ {
		jobs := w.cycle(rng, seed)
		for i := range jobs {
			s.recs = append(s.recs, runJob(ctx, d.client, &jobs[i], time.Now(), traced))
		}
		if el := time.Since(s.start); el+el/time.Duration(cycles) > dur || ctx.Err() != nil {
			break
		}
	}
	s.end = time.Now()
	s.walBytes = d.walBytes() - w0
	return s
}

func (s segment) latencies() []float64 {
	var out []float64
	for _, r := range s.recs {
		if r.err == nil {
			out = append(out, r.latency().Seconds())
		}
	}
	return out
}

// runDaemon measures daemon-mix. Untraced, one closed-loop segment gives
// the end-to-end metrics; traced, an untraced and a traced segment share
// the time. Every daemon cell is then re-run directly on an idle engine
// and must match the daemon's work, messages and solving time.
func runDaemon(ctx context.Context, w daemonWorkload, o options) (outcome, error) {
	workers := runtime.NumCPU()
	var out outcome
	var gate []doall.SweepConfig
	for _, k := range w.kinds {
		k.Workers = workers
		gate = append(gate, k)
	}
	if err := memoryGate(gate); err != nil {
		return out, err
	}
	dir, err := scratchDir()
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	var d *daemon
	rep := 0
	setup, err := medianSetup(func() (time.Duration, error) {
		if d != nil {
			err := d.close()
			d = nil
			if err != nil {
				return 0, err
			}
		}
		rep++
		sub := filepath.Join(dir, fmt.Sprint(rep))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, sub, workers); err != nil {
			return 0, err
		}
		warm := w.warm
		r := runJob(ctx, d.client, &plannedJob{job: doall.Job{Sweep: &warm}, specs: warm.Config().Specs()}, t0, false)
		return time.Since(t0), r.err
	})
	if err != nil {
		if d != nil {
			d.close()
		}
		return out, fmt.Errorf("set-up: %w", err)
	}

	rng := rand.New(rand.NewSource(o.seed))
	dur := o.seconds
	if o.trace {
		dur /= 2
	}
	segs := []segment{runSegment(ctx, d, w, rng, o.seed, dur, false)}
	if o.trace {
		segs = append(segs, runSegment(ctx, d, w, rng, o.seed, dur, true))
	}
	if err := d.close(); err != nil {
		return out, fmt.Errorf("closing the daemon: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("run budget exceeded: %w", err)
	}

	// Re-run every distinct cell directly on one idle engine, as a fleet
	// worker would, and check the daemon's answers against it.
	index := map[doall.Scenario]int{}
	var unique []doall.Scenario
	for _, s := range segs {
		for _, r := range s.recs {
			for _, sc := range r.plan.specs {
				if _, ok := index[sc]; !ok {
					index[sc] = len(unique)
					unique = append(unique, sc)
				}
			}
		}
	}
	eng := doall.NewSimEngine()
	direct := make([]cellRun, len(unique))
	for i, sc := range unique {
		if direct[i], err = runCell(eng, sc, false); err != nil {
			break
		}
	}
	eng.Close()
	if err != nil {
		return out, fmt.Errorf("direct re-run: %w", err)
	}
	directOf := func(r jobRec, rc doall.ResultCell) cellRun { return direct[index[r.plan.specs[rc.I]]] }
	for _, s := range segs {
		for i := range s.recs {
			r := &s.recs[i]
			out.attempted++
			if r.err == nil {
				for _, rc := range r.cells {
					if rc.I < 0 || rc.I >= len(r.plan.specs) || !sameModel(rc.Cell, directOf(*r, rc).counts) {
						r.err = fmt.Errorf("cell %d of %+v disagrees with its direct re-run", rc.I, r.plan.job)
						break
					}
				}
			}
			if r.err != nil {
				out.failed++
				out.notes = append(out.notes, r.err.Error())
			}
		}
	}

	first := segs[0]
	if !o.trace {
		var cellS []float64
		var steps int64
		for _, r := range first.recs {
			if r.err != nil {
				continue
			}
			for _, rc := range r.cells {
				cellS = append(cellS, time.Duration(rc.Cell.NsPerRun).Seconds())
				steps += directOf(r, rc).counts.steps
			}
		}
		lat := first.latencies()
		out.values = map[string]float64{
			"setup_s":     setup.Seconds(),
			"cells_per_s": float64(len(cellS)) / first.wall().Seconds(),
			"steps_per_s": float64(steps) / first.wall().Seconds(),
			"cell_s.p50":  quantile(cellS, 0.5),
			"cell_s.p90":  quantile(cellS, 0.9),
			"job_s.p50":   quantile(lat, 0.5),
			"job_s.p90":   quantile(lat, 0.9),
		}
		return out, nil
	}

	// Traced: spans per job, per-layer metrics from the traced segment.
	traced := segs[1]
	out.tracer = newTracer()
	var submit, queue, run, stream, overDirect []float64
	var busy time.Duration
	var cells int
	for i, r := range traced.recs {
		if r.err != nil {
			continue
		}
		ch := jobChildren(r)
		out.tracer.root(i, "job", r.due, r.received, ch)
		submit = append(submit, ch[0].end.Sub(ch[0].start).Seconds())
		queue = append(queue, ch[1].end.Sub(ch[1].start).Seconds())
		run = append(run, ch[2].end.Sub(ch[2].start).Seconds())
		stream = append(stream, ch[3].end.Sub(ch[3].start).Seconds())
		for _, rc := range r.cells {
			busy += time.Duration(rc.Cell.NsPerRun)
			cells++
			overDirect = append(overDirect, float64(rc.Cell.NsPerRun)/float64(directOf(r, rc).ran.Sub(directOf(r, rc).start)))
		}
	}
	for i, c := range direct {
		c.record(out.tracer, len(traced.recs)+i)
	}
	probe := make([]cellRun, len(unique))
	for i, sc := range unique {
		if probe[i], err = runCell(nil, sc, true); err != nil {
			return out, fmt.Errorf("memory probe: %w", err)
		}
	}
	out.values = layerMetrics(out.tracer, direct, probe)
	out.values["peak_rss_mb"] = peakRSSMiB()
	rest, n := out.tracer.unattributedUnder("job")
	out.values["trace.unattributed_s"] = mean(rest.Seconds(), n)
	out.values["service.submit_s.p50"] = quantile(submit, 0.5)
	out.values["service.queue_s.p50"] = quantile(queue, 0.5)
	out.values["service.queue_s.p90"] = quantile(queue, 0.9)
	out.values["service.run_s.p50"] = quantile(run, 0.5)
	out.values["service.stream_s.p50"] = quantile(stream, 0.5)
	out.values["service.cell_over_direct"] = quantile(overDirect, 0.5)
	out.values["service.fleet_busy_ratio"] = busy.Seconds() / (traced.wall().Seconds() * float64(workers))
	out.values["service.checkpoint_bytes_per_cell"] = ratio(float64(traced.walBytes), float64(cells))
	out.values["trace.overhead_ratio"] = ratio(quantile(first.latencies(), 0.5), quantile(traced.latencies(), 0.5))
	return out, nil
}

// jobChildren splits a job's wall time into non-overlapping child spans
// from the client's clock (submit round trip, trailer receipt) and the
// daemon's millisecond timestamps (started, finished): service.submit,
// service.queue, service.run, service.stream. Each boundary is clamped
// to lie between its neighbours; the client's time between the due
// moment and sending stays unattributed.
func jobChildren(r jobRec) []child {
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	// Carry the daemon's wall-clock milliseconds onto the client's
	// monotonic clock, so every boundary compares on one clock.
	mono := func(ms int64) time.Time { return r.sent.Add(time.UnixMilli(ms).Sub(r.sent)) }
	started := clamp(mono(r.status.StartedMS), r.submitted, r.received)
	finished := clamp(mono(r.status.FinishedMS), started, r.received)
	return []child{
		{"service.submit", r.sent, r.submitted},
		{"service.queue", r.submitted, started},
		{"service.run", started, finished},
		{"service.stream", finished, r.received},
	}
}
