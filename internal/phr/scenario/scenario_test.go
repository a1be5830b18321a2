package scenario

import (
	"errors"
	"strings"
	"testing"
)

// TestDrills runs every shipped drill as an ordinary test case, so the
// lifecycle stories gate CI (including under -race: the federation-churn
// drill is deliberately concurrent). A drill that fails prints its full
// report — steps, violated invariants, skips — not just a boolean, and
// -v logs the report of a passing one.
func TestDrills(t *testing.T) {
	runDrills(t, 1)
}

// TestRunAll reruns every drill at seed 2, another generated workload,
// so -short skips it (TestDrills already covers each drill at seed 1).
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite rerun; TestDrills covers each drill")
	}
	runDrills(t, 2)
}

// runDrills runs every drill at seed as a parallel subtest named after
// the drill.
func runDrills(t *testing.T, seed int64) {
	for _, c := range Drills() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			d, err := c.New(seed)
			if err != nil {
				t.Fatalf("constructing drill: %v", err)
			}
			rep := Run(d)
			if !rep.Passed() {
				t.Fatalf("drill failed:\n%s", rep)
			}
			if rep.StepsRun != len(d.Steps) {
				t.Fatalf("ran %d of %d steps", rep.StepsRun, len(d.Steps))
			}
			for _, sr := range rep.Steps {
				if sr.Skipped {
					t.Fatalf("step %s skipped in a passing run", sr.Step)
				}
			}
			t.Logf("\n%s", rep)
		})
	}
}

// Engine semantics: failures must be loud, later steps must be skipped
// (not run against undefined state), and a drill that checks nothing must
// not pass.

func TestRunStopsAfterFailedInvariant(t *testing.T) {
	ran := []string{}
	d := &Drill{
		Name: "synthetic",
		Steps: []Step{
			{
				Name: "bad",
				Run:  func() error { ran = append(ran, "bad"); return nil },
				Invariants: []Invariant{
					{Name: "holds", Check: func() error { return nil }},
					{Name: "breaks", Check: func() error { return errors.New("boom") }},
					{Name: "diagnostic-still-runs", Check: func() error { ran = append(ran, "diag"); return nil }},
				},
			},
			{
				Name: "never",
				Run:  func() error { ran = append(ran, "never"); return nil },
			},
		},
	}
	rep := Run(d)
	if rep.Passed() {
		t.Fatal("run with a violated invariant passed")
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "boom") {
		t.Fatalf("failures = %v", rep.Failures)
	}
	if got := strings.Join(ran, ","); got != "bad,diag" {
		t.Fatalf("execution order = %q, want bad,diag (later steps skipped, sibling invariants still evaluated)", got)
	}
	if !rep.Steps[1].Skipped {
		t.Fatal("step after a failure was not marked skipped")
	}
	if !strings.Contains(rep.String(), "invariant") {
		t.Fatalf("report does not name the violated invariant:\n%s", rep)
	}
}

func TestRunStepErrorFailsRun(t *testing.T) {
	d := &Drill{
		Name: "synthetic",
		Steps: []Step{
			{
				Name:       "explodes",
				Run:        func() error { return errors.New("setup died") },
				Invariants: []Invariant{{Name: "unreached", Check: func() error { return nil }}},
			},
		},
	}
	rep := Run(d)
	if rep.Passed() {
		t.Fatal("run with a failed step passed")
	}
	if rep.InvariantsChecked != 0 {
		t.Fatal("invariants of a failed step were evaluated against undefined state")
	}
}

func TestSilenceIsNotSuccess(t *testing.T) {
	d := &Drill{
		Name:  "empty",
		Steps: []Step{{Name: "noop", Run: func() error { return nil }}},
	}
	rep := Run(d)
	if rep.Passed() {
		t.Fatal("a drill that checked no invariants passed")
	}
}
