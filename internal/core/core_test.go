package core

import (
	"testing"
)

func TestNewJobsShapes(t *testing.T) {
	cases := []struct {
		p, t, n, g int
	}{
		{4, 4, 4, 1},  // p == t: unit jobs
		{8, 4, 4, 1},  // p > t: t unit jobs
		{4, 8, 4, 2},  // p < t: p jobs of 2
		{4, 10, 4, 3}, // ⌈10/4⌉ = 3 → 4 jobs (3,3,3,1)
		{3, 7, 3, 3},  // jobs (3,3,1)
		{5, 7, 4, 2},  // g=⌈7/5⌉=2 → only 4 non-empty jobs
		{1, 5, 1, 5},  // single processor: one job with everything
	}
	for _, c := range cases {
		j := NewJobs(c.p, c.t)
		if j.N != c.n || j.MaxSize() != c.g {
			t.Errorf("NewJobs(%d,%d): N=%d g=%d, want N=%d g=%d", c.p, c.t, j.N, j.MaxSize(), c.n, c.g)
		}
	}
}

func TestJobsCoverExactlyOnce(t *testing.T) {
	for _, pt := range [][2]int{{4, 4}, {3, 10}, {7, 100}, {16, 16}, {5, 23}, {10, 3}} {
		j := NewJobs(pt[0], pt[1])
		seen := make([]int, j.T)
		for job := 0; job < j.N; job++ {
			if j.Size(job) < 1 {
				t.Fatalf("NewJobs(%d,%d): empty job %d", pt[0], pt[1], job)
			}
			for z := j.Start(job); z < j.End(job); z++ {
				seen[z]++
				if j.JobOf(z) != job {
					t.Fatalf("JobOf(%d) = %d, want %d", z, j.JobOf(z), job)
				}
			}
		}
		for z, c := range seen {
			if c != 1 {
				t.Fatalf("NewJobs(%d,%d): task %d covered %d times", pt[0], pt[1], z, c)
			}
		}
	}
}

func TestJobsPanicOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewJobs(0,1) should panic")
		}
	}()
	NewJobs(0, 1)
}
