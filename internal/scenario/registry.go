package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"doall/internal/adversary"
	"doall/internal/core"
	"doall/internal/perm"
)

// AlgorithmBuilder constructs the processor machines for a (defaulted)
// scenario. Builders must be deterministic in sc.Seed: the same scenario
// must always build the same machines.
type AlgorithmBuilder func(sc Scenario) ([]Machine, error)

// AdversaryBuilder constructs one adversary-expression node from its
// context (parameters and already-built inner adversaries).
type AdversaryBuilder func(ctx *AdversaryContext) (Adversary, error)

var (
	regMu      sync.RWMutex
	algorithms = map[string]AlgorithmBuilder{}
	adversGens = map[string]AdversaryBuilder{}
)

// RegisterAlgorithm adds (or replaces) a named algorithm builder. It
// panics on an empty name or nil builder; replacing an existing name is
// allowed so tests and downstream code can override defaults.
func RegisterAlgorithm(name string, b AlgorithmBuilder) {
	if name == "" || b == nil {
		panic("scenario: RegisterAlgorithm needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	algorithms[name] = b
}

// RegisterAdversary adds (or replaces) a named adversary builder usable in
// adversary expressions. Same rules as RegisterAlgorithm.
func RegisterAdversary(name string, b AdversaryBuilder) {
	if name == "" || b == nil {
		panic("scenario: RegisterAdversary needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	adversGens[name] = b
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(algorithms))
	for n := range algorithms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Adversaries returns the registered adversary names, sorted.
func Adversaries() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(adversGens))
	for n := range adversGens {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupAlgorithm(name string) (AlgorithmBuilder, error) {
	regMu.RLock()
	b, ok := algorithms[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scenario: unknown algorithm %q (registered: %s)", name, strings.Join(Algorithms(), ", "))
	}
	return b, nil
}

func lookupAdversary(name string) (AdversaryBuilder, error) {
	regMu.RLock()
	b, ok := adversGens[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scenario: unknown adversary %q (registered: %s)", name, strings.Join(Adversaries(), ", "))
	}
	return b, nil
}

// The pre-registered names.
const (
	AlgoAllToAll = "AllToAll"
	AlgoObliDo   = "ObliDo"
	AlgoDA       = "DA"
	AlgoPaRan1   = "PaRan1"
	AlgoPaRan2   = "PaRan2"
	AlgoPaDet    = "PaDet"

	AdvFair        = "fair"
	AdvRandom      = "random"
	AdvCrashing    = "crashing"
	AdvRestarting  = "restarting"
	AdvOmitting    = "omitting"
	AdvSlowSet     = "slow-set"
	AdvStageDet    = "stage-det"
	AdvStageOnline = "stage-online"
)

// The paper's six algorithms. Seed usage is load-bearing: these builders
// reproduce the historical harness.Spec construction bit for bit (one
// rand.Source from sc.Seed feeding schedule search), so Scenario runs are
// byte-identical to the legacy path (asserted by tests).
func init() {
	RegisterAlgorithm(AlgoAllToAll, func(sc Scenario) ([]Machine, error) {
		return core.NewAllToAll(sc.P, sc.T), nil
	})
	RegisterAlgorithm(AlgoObliDo, func(sc Scenario) ([]Machine, error) {
		r := rand.New(rand.NewSource(sc.Seed))
		jobs := core.NewJobs(sc.P, sc.T)
		l := perm.RandomList(sc.P, jobs.N, r)
		return core.NewObliDo(sc.P, sc.T, l), nil
	})
	RegisterAlgorithm(AlgoDA, func(sc Scenario) ([]Machine, error) {
		r := rand.New(rand.NewSource(sc.Seed))
		l := perm.FindLowContentionList(sc.Q, sc.Q, sc.SearchRestarts, r).List
		return core.NewDA(core.DAConfig{P: sc.P, T: sc.T, Q: sc.Q, Perms: l})
	})
	RegisterAlgorithm(AlgoPaRan1, func(sc Scenario) ([]Machine, error) {
		return core.NewPaRan1Sharded(sc.P, sc.T, sc.Seed, ResolveShards(sc.Shards, sc.P)), nil
	})
	RegisterAlgorithm(AlgoPaRan2, func(sc Scenario) ([]Machine, error) {
		return core.NewPaRan2Sharded(sc.P, sc.T, sc.Seed, ResolveShards(sc.Shards, sc.P)), nil
	})
	RegisterAlgorithm(AlgoPaDet, func(sc Scenario) ([]Machine, error) {
		r := rand.New(rand.NewSource(sc.Seed))
		jobs := core.NewJobs(sc.P, sc.T)
		l := perm.FindLowDContentionList(sc.P, jobs.N, int(sc.D), sc.SearchRestarts, r).List
		return core.NewPaDet(sc.P, sc.T, l)
	})
}

// The implemented adversaries and combinators.
func init() {
	// fair: full speed, every message delayed exactly delay (default d).
	RegisterAdversary(AdvFair, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(0); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("delay"); err != nil {
			return nil, err
		}
		d := ctx.Scenario.D
		delay, err := ctx.IntParam("delay", d)
		if err != nil {
			return nil, err
		}
		if delay < 1 || delay > d {
			return nil, fmt.Errorf("delay=%d outside [1, d=%d]", delay, d)
		}
		return &adversary.Fair{Bound: d, Fixed: delay}, nil
	})

	// random: per-unit activity probability, uniform delays in [1, d].
	// The default seed derivation (sc.Seed ^ 0x5eed) matches the
	// historical harness so legacy specs replay exactly.
	RegisterAdversary(AdvRandom, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(0); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("activity", "seed"); err != nil {
			return nil, err
		}
		activity, err := ctx.FloatParam("activity", 0.75)
		if err != nil {
			return nil, err
		}
		if activity <= 0 || activity > 1 {
			return nil, fmt.Errorf("activity=%v outside (0, 1]", activity)
		}
		seed, err := ctx.IntParam("seed", ctx.Scenario.Seed^0x5eed)
		if err != nil {
			return nil, err
		}
		return adversary.NewRandom(ctx.Scenario.D, activity, seed), nil
	})

	// crashing: wraps an inner adversary (default fair) with scheduled
	// crash failures. crash=PID@TIME parameters list the events; with no
	// events it crashes processors 1..⌊(p-1)/2⌋, processor i at time i·d —
	// a deterministic default so the flat name is meaningful in sweeps.
	RegisterAdversary(AdvCrashing, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(1); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("crash"); err != nil {
			return nil, err
		}
		inner, err := ctx.innerOrFair()
		if err != nil {
			return nil, err
		}
		var events []adversary.CrashEvent
		for _, v := range ctx.ParamAll("crash") {
			ev, err := parseCrashEvent(v)
			if err != nil {
				return nil, err
			}
			if ev.Pid < 0 || ev.Pid >= ctx.Scenario.P {
				return nil, fmt.Errorf("crash=%q: pid %d outside [0, %d)", v, ev.Pid, ctx.Scenario.P)
			}
			if ev.At < 0 {
				return nil, fmt.Errorf("crash=%q: negative time", v)
			}
			events = append(events, ev)
		}
		if len(events) == 0 {
			d := ctx.Scenario.D
			for i := 1; i <= (ctx.Scenario.P-1)/2; i++ {
				events = append(events, adversary.CrashEvent{Pid: i, At: int64(i) * d})
			}
		}
		return adversary.NewCrashing(inner, events), nil
	})

	// restarting: wraps an inner adversary (default fair) with
	// restartable-crash faults. crash=PID@TIME parameters list the crash
	// instants (defaulting to crashing's schedule: processors
	// 1..⌊(p-1)/2⌋, processor i at time i·d) and down=N (default 4·d) is
	// the downtime — each crashed processor revives N units after its
	// crash with fresh initial knowledge.
	RegisterAdversary(AdvRestarting, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(1); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("crash", "down"); err != nil {
			return nil, err
		}
		inner, err := ctx.innerOrFair()
		if err != nil {
			return nil, err
		}
		d := ctx.Scenario.D
		down, err := ctx.IntParam("down", 4*d)
		if err != nil {
			return nil, err
		}
		if down < 1 {
			return nil, fmt.Errorf("down=%d must be ≥ 1", down)
		}
		var events []adversary.RestartEvent
		for _, v := range ctx.ParamAll("crash") {
			ev, err := parseCrashEvent(v)
			if err != nil {
				return nil, err
			}
			if ev.Pid < 0 || ev.Pid >= ctx.Scenario.P {
				return nil, fmt.Errorf("crash=%q: pid %d outside [0, %d)", v, ev.Pid, ctx.Scenario.P)
			}
			if ev.At < 0 {
				return nil, fmt.Errorf("crash=%q: negative time", v)
			}
			events = append(events, adversary.RestartEvent{Pid: ev.Pid, CrashAt: ev.At, ReviveAt: ev.At + down})
		}
		if len(events) == 0 {
			for i := 1; i <= (ctx.Scenario.P-1)/2; i++ {
				at := int64(i) * d
				events = append(events, adversary.RestartEvent{Pid: i, CrashAt: at, ReviveAt: at + down})
			}
		}
		return adversary.NewRestarting(inner, events), nil
	})

	// omitting: wraps an inner adversary (default fair) with
	// message-omission faults. drop=PID@T (or drop=PID@T1:T2) parameters
	// give send-time windows whose multicasts lose their copies; to=PID
	// parameters restrict the loss to the listed recipients (the
	// complement still receives — deliver-to-subset). With no drop
	// parameters, processors 1..⌊(p-1)/2⌋ lose every multicast sent in
	// [i·d, (i+2)·d) — a deterministic default so the flat name is
	// meaningful in sweeps.
	RegisterAdversary(AdvOmitting, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(1); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("drop", "to"); err != nil {
			return nil, err
		}
		inner, err := ctx.innerOrFair()
		if err != nil {
			return nil, err
		}
		var windows []adversary.OmitWindow
		for _, v := range ctx.ParamAll("drop") {
			w, err := parseOmitWindow(v)
			if err != nil {
				return nil, err
			}
			if w.Pid < 0 || w.Pid >= ctx.Scenario.P {
				return nil, fmt.Errorf("drop=%q: pid %d outside [0, %d)", v, w.Pid, ctx.Scenario.P)
			}
			windows = append(windows, w)
		}
		if len(windows) == 0 {
			d := ctx.Scenario.D
			for i := 1; i <= (ctx.Scenario.P-1)/2; i++ {
				windows = append(windows, adversary.OmitWindow{Pid: i, From: int64(i) * d, Until: int64(i+2) * d})
			}
		}
		var to []int
		for _, v := range ctx.ParamAll("to") {
			pid, err := strconv.Atoi(v)
			if err != nil || pid < 0 || pid >= ctx.Scenario.P {
				return nil, fmt.Errorf("to=%q is not a processor id in [0, %d)", v, ctx.Scenario.P)
			}
			to = append(to, pid)
		}
		return adversary.NewOmitting(inner, windows, to), nil
	})

	// slow-set: wraps an inner adversary (default fair) so the designated
	// slow processors (slow=PID parameters; default the upper half) step
	// only every period units (default 4).
	RegisterAdversary(AdvSlowSet, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(1); err != nil {
			return nil, err
		}
		if err := ctx.checkParams("slow", "period"); err != nil {
			return nil, err
		}
		period, err := ctx.IntParam("period", 4)
		if err != nil {
			return nil, err
		}
		if period < 1 {
			return nil, fmt.Errorf("period=%d must be ≥ 1", period)
		}
		var slow []int
		for _, v := range ctx.ParamAll("slow") {
			pid, err := strconv.Atoi(v)
			if err != nil || pid < 0 || pid >= ctx.Scenario.P {
				return nil, fmt.Errorf("slow=%q is not a processor id in [0, %d)", v, ctx.Scenario.P)
			}
			slow = append(slow, pid)
		}
		if len(slow) == 0 {
			for i := ctx.Scenario.P / 2; i < ctx.Scenario.P; i++ {
				slow = append(slow, i)
			}
		}
		// With no explicit inner, build the standalone SlowSet: it owns
		// the whole schedule, so it can promise NextWake across all-slow
		// idle stretches and keep the engine's fast-forward. The
		// combinator form cannot make that promise over an opaque inner
		// (whose Schedule may have time-dependent side effects the
		// fast-forward would skip); it produces identical Results, just
		// without the idle jump.
		if len(ctx.Inners) == 0 {
			return adversary.NewSlowSet(ctx.Scenario.D, slow, period), nil
		}
		return adversary.NewSlowSetOver(ctx.Inners[0], slow, period), nil
	})

	// stage-det: the Theorem 3.1 off-line lower-bound construction.
	RegisterAdversary(AdvStageDet, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(0); err != nil {
			return nil, err
		}
		if err := ctx.checkParams(); err != nil {
			return nil, err
		}
		return adversary.NewStageDeterministic(ctx.Scenario.D, ctx.Scenario.T), nil
	})

	// stage-online: the Theorem 3.4 adaptive lower-bound construction.
	RegisterAdversary(AdvStageOnline, func(ctx *AdversaryContext) (Adversary, error) {
		if err := ctx.maxInners(0); err != nil {
			return nil, err
		}
		if err := ctx.checkParams(); err != nil {
			return nil, err
		}
		return adversary.NewStageOnline(ctx.Scenario.D, ctx.Scenario.T), nil
	})
}

// innerOrFair returns the combinator's single inner adversary, building a
// default fair one when the expression gave none.
func (c *AdversaryContext) innerOrFair() (Adversary, error) {
	if len(c.Inners) > 0 {
		return c.Inners[0], nil
	}
	b, err := lookupAdversary(AdvFair)
	if err != nil {
		return nil, err
	}
	return b(&AdversaryContext{Scenario: c.Scenario})
}

// parseOmitWindow parses "PID@TIME" (the single unit [TIME, TIME+1)) or
// "PID@FROM:UNTIL" (send times in the half-open window [FROM, UNTIL)).
func parseOmitWindow(v string) (adversary.OmitWindow, error) {
	pidStr, span, ok := strings.Cut(v, "@")
	if !ok {
		return adversary.OmitWindow{}, fmt.Errorf("drop=%q is not PID@TIME or PID@FROM:UNTIL", v)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(pidStr))
	if err != nil {
		return adversary.OmitWindow{}, fmt.Errorf("drop=%q: bad pid: %v", v, err)
	}
	fromStr, untilStr, ranged := strings.Cut(span, ":")
	from, err := strconv.ParseInt(strings.TrimSpace(fromStr), 10, 64)
	if err != nil {
		return adversary.OmitWindow{}, fmt.Errorf("drop=%q: bad time: %v", v, err)
	}
	until := from + 1
	if ranged {
		until, err = strconv.ParseInt(strings.TrimSpace(untilStr), 10, 64)
		if err != nil {
			return adversary.OmitWindow{}, fmt.Errorf("drop=%q: bad window end: %v", v, err)
		}
	}
	if from < 0 || until <= from {
		return adversary.OmitWindow{}, fmt.Errorf("drop=%q: window [%d, %d) is empty or negative", v, from, until)
	}
	return adversary.OmitWindow{Pid: pid, From: from, Until: until}, nil
}

// parseCrashEvent parses "PID@TIME".
func parseCrashEvent(v string) (adversary.CrashEvent, error) {
	pidStr, atStr, ok := strings.Cut(v, "@")
	if !ok {
		return adversary.CrashEvent{}, fmt.Errorf("crash=%q is not PID@TIME", v)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(pidStr))
	if err != nil {
		return adversary.CrashEvent{}, fmt.Errorf("crash=%q: bad pid: %v", v, err)
	}
	at, err := strconv.ParseInt(strings.TrimSpace(atStr), 10, 64)
	if err != nil {
		return adversary.CrashEvent{}, fmt.Errorf("crash=%q: bad time: %v", v, err)
	}
	return adversary.CrashEvent{Pid: pid, At: at}, nil
}
