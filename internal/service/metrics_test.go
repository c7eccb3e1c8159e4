package service

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"doall/internal/scenario"
)

// TestSimMetricsEqualDirectResults checks the /metrics simulation
// counters by value: after a job of known cells, each doalld_sim_*
// counter equals the matching sim.Result field summed over every cell ×
// trial run directly.
func TestSimMetricsEqualDirectResults(t *testing.T) {
	spec := &scenario.SweepSpec{
		Algos: []string{"DA", "PaRan1"}, Ps: []int{8, 12}, Ts: []int{32}, Ds: []int64{2},
		Adversaries: []string{
			"fair",
			"restarting(omitting(fair, drop=2@0:40, to=0), crash=1@3, down=8)",
		},
		BaseSeed: 7, Trials: 2, Shards: 2,
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(Job{Sweep: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitState(t, s, st.ID); st.State != JobDone {
		t.Fatalf("final status: %+v", st)
	}

	want := map[string]int64{}
	for _, sc := range spec.Config().Specs() {
		for i := 0; i < spec.Trials; i++ {
			run := sc
			run.Seed = sc.Seed + int64(i)
			res, err := scenario.Run(run)
			if err != nil {
				t.Fatal(err)
			}
			r := res.Sim
			want["doalld_sim_steps_total"] += r.TotalSteps
			want["doalld_sim_multicasts_total"] += r.Multicasts
			want["doalld_sim_messages_total"] += r.TotalMessages
			want["doalld_sim_crashes_total"] += r.Crashes
			want["doalld_sim_revivals_total"] += r.Revivals
			want["doalld_sim_omissions_total"] += r.Omissions
			if r.Solved {
				want["doalld_sim_solved_total"]++
			}
		}
	}
	for _, name := range []string{"doalld_sim_crashes_total", "doalld_sim_revivals_total", "doalld_sim_omissions_total"} {
		if want[name] == 0 {
			t.Fatalf("grid never exercises %s", name)
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "doalld_sim_") {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", sc.Text(), err)
		}
		got[name] = n
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d (direct-run sum)", name, got[name], w)
		}
	}
}

// TestServiceAttachesNoObserver pins that the daemon's metrics come from
// Results, not hooks: no non-test source in this package names an
// Observer (sim.Observer, an Options or Config Observer field, a
// NopObserver embed, …). An attached observer would add hook calls to
// every daemon cell for counts the Result already holds.
func TestServiceAttachesNoObserver(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "Observer") {
				t.Errorf("%s: %s: the service must not attach a sim.Observer (fold counts from sim.Result instead)",
					fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		checked++
	}
	if checked == 0 {
		t.Fatal("no service sources found")
	}
}
