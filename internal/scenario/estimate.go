package scenario

// Per-worker memory pre-estimation for sweeps. A large-shape grid cell
// (p = 4096, t = 262144) allocates machine sets, engine arrays, and
// in-flight snapshot chains per worker; launching a multi-hour sweep that
// OOMs halfway through is the worst possible failure mode, so
// doall sweep -maxmem asks for an estimate up front and refuses to
// start when the budget cannot hold the largest shape. The estimate is a
// deliberate over-approximation (worst-case pools, every processor's
// snapshots in flight) of steady-state heap, not an accounting of every
// byte: transient construction garbage can exceed it briefly, and the Go
// runtime roughly doubles live heap under the default GOGC.

// EstimateCellBytes returns a rough upper estimate of the steady-state
// heap one worker needs to simulate the scenario's shape: machine state
// (permutations, versioned sets with stamps, progress trees), the
// engine's per-processor and per-task arrays, the timing wheel, and the
// worst-case pool of in-flight snapshot chains and multicast records.
func EstimateCellBytes(sc Scenario) int64 {
	sc = sc.WithDefaults()
	p, t, d := int64(sc.P), int64(sc.T), sc.D
	if p < 1 || t < 1 {
		return 0
	}
	jobs := p
	if t < p {
		jobs = t
	}
	jobWords := (jobs + 63) / 64
	// DA's progress tree has at most q·jobs/(q-1) + 1 ≤ 2·jobs + 1 nodes.
	treeWords := (2*jobs + 64) / 64

	// Schedule-permutation backing, the PA-family's dominant term: PaRan1
	// materializes one int32 per (processor, job) into one backing array
	// per build shard — p·jobs·4 bytes, 16 GiB at p = 65536 — while PaRan2
	// holds no permutation (each selection draws uniformly from the jobs
	// its done-set leaves undone) and the non-permutation algorithms (DA's
	// digit/stack walk, AllToAll's and ObliDo's flat scans) carry only
	// polylog or per-word state already covered below. Charging the
	// backing to every algorithm would veto affordable DA sweeps at large
	// p; unknown algorithm strings keep the conservative charge. PaDet is
	// charged its schedule search's two []int lists of p·jobs·8 bytes (the
	// best so far and the current candidate) on top of the int32 copy its
	// machines walk.
	perm := p * jobs * 4
	switch sc.Algorithm {
	case AlgoDA, AlgoAllToAll, AlgoObliDo, AlgoPaRan2:
		perm = 0
	case AlgoPaDet:
		perm += 2 * p * jobs * 8
	}

	// Per-machine state, taking the larger of the PA and DA layouts: the
	// versioned set (bits + stamps, an epoch base, and up to two epochs'
	// worth of delta segments at the rebase threshold) and struct
	// overhead.
	words := jobWords
	if treeWords > words {
		words = treeWords
	}
	perMachine := words*8*2 + // set + stamps
		words*8*3 + // pooled epoch bases (current + retiring)
		words*8*4 + // delta segments up to ~2 rebase thresholds
		512 // structs, stack, scratch, digit/stack arrays

	// Engine state: per-task result arrays (FirstDoneAt int64 + ledger
	// bits), per-processor arrays (inboxes, cursors, work counters, delay
	// scratch), wheel buckets, and in-flight multicast/batch records
	// (bounded by one broadcast per processor per delay window).
	wheelBuckets := d + 1
	if wheelBuckets > 1<<15 {
		wheelBuckets = 1 << 15
	}
	inflight := p * 4 // multicast records + batch slots, worst case
	engine := t*9 +   // FirstDoneAt + task ledger
		p*(24*8+64) + // inbox headers + slack, cursors, counters
		wheelBuckets*24 +
		inflight*96

	return perm + p*perMachine + engine
}

// EstimateSweepBytes returns a rough upper estimate of the sweep's peak
// steady-state heap: the per-worker estimate of the grid's largest shape
// times the number of workers that run concurrently.
func EstimateSweepBytes(c SweepConfig) int64 {
	c = c.withDefaults()
	specs := c.Specs()
	var worst int64
	for _, sc := range specs {
		if b := EstimateCellBytes(sc); b > worst {
			worst = b
		}
	}
	workers := int64(c.Workers)
	if n := int64(len(specs)); workers > n {
		workers = n
	}
	return worst * workers
}
