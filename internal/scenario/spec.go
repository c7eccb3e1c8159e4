package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SweepSpec is the JSON-serializable declaration of a sweep grid: what
// SweepConfig declares, minus the per-process execution knobs (worker
// count, progress callback) that make SweepConfig unmarshalable and
// meaningless across a wire. It is the document the service plane accepts
// over HTTP and records in its checkpoint log; Config() turns it back
// into a runnable SweepConfig. The field names match the doall sweep
// command's flags.
type SweepSpec struct {
	// Algos, Ps, Ts, Ds span the grid; every combination is one cell.
	Algos []string `json:"algos"`
	Ps    []int    `json:"p"`
	Ts    []int    `json:"t"`
	Ds    []int64  `json:"d"`
	// Adversary applies to every cell (default "fair") when Adversaries
	// is empty; Adversaries adds an adversary-expression grid axis.
	Adversary   string   `json:"adversary,omitempty"`
	Adversaries []string `json:"adversaries,omitempty"`
	// BaseSeed feeds the per-cell seed derivation (CellSeed).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Trials runs each cell this many times and averages (default 1).
	Trials int `json:"trials,omitempty"`
	// MaxSteps overrides the simulator step cap per run (0 = default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Theory adds the paper's closed-form bound columns to every cell.
	Theory bool `json:"theory,omitempty"`
	// Shards is each cell's intra-run parallelism (Scenario.Shards):
	// 0/1 sequential, -1 (ShardsAuto) resolved per cell at run time.
	// Results are shard-invariant; only wall-clock time changes.
	Shards int `json:"shards,omitempty"`
	// Q is each cell's DA progress-tree arity (0 = default binary tree);
	// the DA theory column's ε follows it per Theorem 5.5.
	Q int `json:"q,omitempty"`
}

// ParseSweepSpec decodes a JSON sweep document, rejecting unknown fields
// so typos fail loudly.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	var s SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("sweep: parse: %w", err)
	}
	return s, nil
}

// Config converts the spec into a runnable SweepConfig; execution knobs
// (Workers, Progress) are the caller's to set.
func (s SweepSpec) Config() SweepConfig {
	return SweepConfig{
		Algos:       s.Algos,
		Ps:          s.Ps,
		Ts:          s.Ts,
		Ds:          s.Ds,
		Adversary:   s.Adversary,
		Adversaries: s.Adversaries,
		BaseSeed:    s.BaseSeed,
		Trials:      s.Trials,
		MaxSteps:    s.MaxSteps,
		Theory:      s.Theory,
		Shards:      s.Shards,
		Q:           s.Q,
	}
}

// Cells returns the grid size without enumerating it.
func (s SweepSpec) Cells() int {
	advs := len(s.Adversaries)
	if advs == 0 {
		advs = 1
	}
	return len(s.Algos) * advs * len(s.Ps) * len(s.Ts) * len(s.Ds)
}

// Validate checks the spec declares a runnable grid: every axis is
// non-empty and positive, trials is not negative, and every algorithm ×
// adversary pair resolves through the registries. The doall sweep
// command runs the same check before any cell. Adversary parameters are probed against the grid's
// largest shape: shape-dependent parameters (fair(delay=8) with d=8,
// slow-set(slow=9) with p=16) validate against what the cells will
// actually run, and smaller cells that still violate a parameter surface
// as per-cell errors in the results.
func (s SweepSpec) Validate() error {
	switch {
	case len(s.Algos) == 0:
		return fmt.Errorf("sweep: empty algos axis")
	case len(s.Ps) == 0:
		return fmt.Errorf("sweep: empty p axis")
	case len(s.Ts) == 0:
		return fmt.Errorf("sweep: empty t axis")
	case len(s.Ds) == 0:
		return fmt.Errorf("sweep: empty d axis")
	}
	maxP, maxT, maxD := s.Ps[0], s.Ts[0], s.Ds[0]
	for _, p := range s.Ps {
		if p < 1 {
			return fmt.Errorf("sweep: p=%d out of range (want ≥ 1)", p)
		}
		if p > maxP {
			maxP = p
		}
	}
	for _, t := range s.Ts {
		if t < 1 {
			return fmt.Errorf("sweep: t=%d out of range (want ≥ 1)", t)
		}
		if t > maxT {
			maxT = t
		}
	}
	for _, d := range s.Ds {
		if d < 1 {
			return fmt.Errorf("sweep: d=%d out of range (want ≥ 1)", d)
		}
		if d > maxD {
			maxD = d
		}
	}
	if s.Trials < 0 {
		return fmt.Errorf("sweep: trials=%d out of range (want ≥ 0; 0 = default 1)", s.Trials)
	}
	if s.Shards < ShardsAuto {
		return fmt.Errorf("sweep: shards=%d out of range (want ≥ -1; -1 = auto)", s.Shards)
	}
	if s.Q != 0 && s.Q < 2 {
		return fmt.Errorf("sweep: q=%d out of range (want 0 = default, or ≥ 2)", s.Q)
	}
	advs := s.Adversaries
	if len(advs) == 0 {
		adv := s.Adversary
		if adv == "" {
			adv = AdvFair
		}
		advs = []string{adv}
	}
	probe := Scenario{P: maxP, T: maxT, D: maxD, Seed: 1, Q: s.Q}
	for _, algo := range s.Algos {
		for _, adv := range advs {
			probe.Algorithm, probe.Adversary = algo, adv
			if err := probe.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}
