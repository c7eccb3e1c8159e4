package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseSweepSpec(t *testing.T) {
	doc := []byte(`{
		"algos": ["PaRan1", "DA"],
		"p": [4, 8],
		"t": [16],
		"d": [1, 2],
		"adversaries": ["fair", "crashing"],
		"base_seed": 7,
		"trials": 2,
		"theory": true
	}`)
	s, err := ParseSweepSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Cells(), 2*2*2*1*2; got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	cfg := s.Config()
	if cfg.BaseSeed != 7 || cfg.Trials != 2 || !cfg.Theory || len(cfg.Adversaries) != 2 {
		t.Fatalf("Config() dropped fields: %+v", cfg)
	}
	if got := len(cfg.Specs()); got != s.Cells() {
		t.Fatalf("Specs() enumerated %d cells, Cells() says %d", got, s.Cells())
	}
}

func TestParseSweepSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweepSpec([]byte(`{"algos":["DA"],"p":[4],"t":[16],"d":[1],"trails":3}`)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestSweepSpecValidateRejects(t *testing.T) {
	base := SweepSpec{Algos: []string{"DA"}, Ps: []int{4}, Ts: []int{16}, Ds: []int64{1}}
	if err := base.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SweepSpec)
		want string
	}{
		{"empty algos", func(s *SweepSpec) { s.Algos = nil }, "algos"},
		{"empty p", func(s *SweepSpec) { s.Ps = nil }, "p axis"},
		{"zero t", func(s *SweepSpec) { s.Ts = []int{0} }, "t=0"},
		{"negative d", func(s *SweepSpec) { s.Ds = []int64{-1} }, "d=-1"},
		{"negative trials", func(s *SweepSpec) { s.Trials = -3 }, "trials=-3"},
		{"unknown algo", func(s *SweepSpec) { s.Algos = []string{"NoSuchAlgo"} }, "algorithm"},
		{"unknown adversary", func(s *SweepSpec) { s.Adversary = "confused" }, "adversary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// stripNs zeroes the wall-clock column so value comparisons see only
// model quantities.
func stripNs(cells []Cell) []Cell {
	out := make([]Cell, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].NsPerRun = 0
	}
	return out
}

// A background-context sweep must be indistinguishable from RunSweep.
func TestRunSweepContextMatchesRunSweep(t *testing.T) {
	cfg := SweepConfig{
		Algos: []string{"PaRan1"}, Ps: []int{4, 8}, Ts: []int{16}, Ds: []int64{1, 2},
		Trials: 2, Workers: 3,
	}
	plain := stripNs(RunSweep(cfg))
	got, err := RunSweepContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got = stripNs(got)
	for i := range plain {
		if plain[i] != got[i] {
			t.Fatalf("cell %d differs:\nRunSweep:        %+v\nRunSweepContext: %+v", i, plain[i], got[i])
		}
	}
}

func TestRunSweepContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any cell runs
	cfg := SweepConfig{
		Algos: []string{"PaRan1"}, Ps: []int{4}, Ts: []int{16}, Ds: []int64{1, 2},
		Workers: 2,
	}
	cells, err := RunSweepContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want the full grid stamped", len(cells))
	}
	specs := cfg.Specs()
	for i, c := range cells {
		if c.Err == "" {
			continue // a cell may legitimately finish before the flag is seen
		}
		if c.Algo != specs[i].Algorithm || c.P != specs[i].P || c.Seed != specs[i].Seed {
			t.Fatalf("unrun cell %d lost its identity columns: %+v", i, c)
		}
		if c.Work != 0 || c.SolvedAt != 0 {
			t.Fatalf("unrun cell %d carries measures: %+v", i, c)
		}
	}
}

func TestNewSweepReportContextPartial(t *testing.T) {
	cfg := SweepConfig{
		Algos: []string{"PaRan1"}, Ps: []int{4}, Ts: []int{16}, Ds: []int64{1},
		Workers: 1,
	}
	rep, err := NewSweepReportContext(context.Background(), cfg)
	if err != nil || rep.Partial {
		t.Fatalf("complete sweep: err=%v partial=%v", err, rep.Partial)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err = NewSweepReportContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !rep.Partial {
		t.Fatal("interrupted report not marked partial")
	}
}

// Cancellation mid-sweep: the completed prefix must be byte-identical to
// the full run's cells (resumability is a sweep-level property, not just
// a service one).
func TestRunSweepContextPartialPrefixMatches(t *testing.T) {
	cfg := SweepConfig{
		Algos: []string{"PaRan1"}, Ps: []int{4, 8}, Ts: []int{16, 32}, Ds: []int64{1, 2},
		Workers: 1,
	}
	full := stripNs(RunSweep(cfg))

	// Cancel after the second completed cell via the Progress hook.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgC := cfg
	cfgC.Progress = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	cells, err := RunSweepContext(ctx, cfgC)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	cells = stripNs(cells)
	ran := 0
	for i, c := range cells {
		if c.Err != "" {
			continue
		}
		ran++
		if c != full[i] {
			t.Fatalf("completed cell %d differs from full run:\nfull:    %+v\npartial: %+v", i, full[i], c)
		}
	}
	if ran < 2 || ran == len(full) {
		t.Fatalf("expected a strict partial prefix, got %d/%d cells", ran, len(full))
	}
}
