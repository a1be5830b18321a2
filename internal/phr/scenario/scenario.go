// Package scenario is an executable lifecycle drill engine for the PHR
// disclosure service. The paper pitches type-and-identity PRE for personal
// health records, where the security story is about *lifecycles* — a
// clinician losing access, a patient re-keying a category after a
// compromise, emergency access under audit, cross-domain delegation churn
// — not one-shot encrypt/decrypt. Each drill here runs a named, multi-step
// operational scenario over a live Service+Store+proxies and checks
// machine-verified invariants after every step, producing a structured
// Report. The drills run as ordinary `go test` cases (and under -race), so
// every future refactor of the crypto stack is pinned against these
// stories.
package scenario

import (
	"fmt"
	"strings"
)

// Invariant is one machine-checked property, evaluated after the step it
// is attached to. Check returns nil when the property holds.
type Invariant struct {
	Name  string
	Check func() error
}

// Step is one operational action of a drill plus the invariants that must
// hold once it completes. Steps that exercise expected failures perform
// the failing call inside Run, record its error, and let invariants assert
// on it — Run returning an error means the drill itself broke.
type Step struct {
	Name       string
	Run        func() error
	Invariants []Invariant
}

// Drill is a named multi-step scenario. Steps share state by closing over
// their constructor's environment.
type Drill struct {
	Name        string
	Description string
	Steps       []Step
}

// InvariantResult records one invariant evaluation.
type InvariantResult struct {
	Invariant string
	Err       string // empty = held
}

// StepResult records one executed (or skipped) step.
type StepResult struct {
	Step       string
	Skipped    bool   // true when an earlier failure made the state undefined
	Err        string // non-empty when the step's action itself failed
	Invariants []InvariantResult
}

// Report is the structured outcome of one drill run.
type Report struct {
	Drill             string
	Steps             []StepResult
	StepsRun          int
	InvariantsChecked int
	Failures          []string
}

// Passed reports whether the drill ran to completion with every invariant
// holding. A drill that checked nothing does not pass: silence is not
// success.
func (r *Report) Passed() bool {
	return len(r.Failures) == 0 && r.StepsRun > 0 && r.InvariantsChecked > 0
}

// String renders a human-readable summary (one line per step and per
// failed invariant).
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "drill %-17s %s  (%d steps, %d invariants checked)\n",
		r.Drill, status, r.StepsRun, r.InvariantsChecked)
	for _, st := range r.Steps {
		switch {
		case st.Skipped:
			fmt.Fprintf(&b, "  ~ %s (skipped)\n", st.Step)
		case st.Err != "":
			fmt.Fprintf(&b, "  ✗ %s: %s\n", st.Step, st.Err)
		default:
			fmt.Fprintf(&b, "  ✓ %s\n", st.Step)
		}
		for _, inv := range st.Invariants {
			if inv.Err != "" {
				fmt.Fprintf(&b, "      invariant %s: %s\n", inv.Invariant, inv.Err)
			}
		}
	}
	return b.String()
}

// Run executes a drill: steps in order, each step's invariants right after
// it. The first failure (step error or violated invariant) marks the run
// failed; remaining invariants of the failing step still execute for
// diagnostics, but later steps are skipped — their preconditions no longer
// hold, and a cascade of secondary failures would bury the root cause.
func Run(d *Drill) *Report {
	rep := &Report{Drill: d.Name}
	failed := false
	for _, st := range d.Steps {
		sr := StepResult{Step: st.Name}
		if failed {
			sr.Skipped = true
			rep.Steps = append(rep.Steps, sr)
			continue
		}
		rep.StepsRun++
		if err := st.Run(); err != nil {
			sr.Err = err.Error()
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s/%s: %v", d.Name, st.Name, err))
			failed = true
			rep.Steps = append(rep.Steps, sr)
			continue
		}
		for _, inv := range st.Invariants {
			ir := InvariantResult{Invariant: inv.Name}
			rep.InvariantsChecked++
			if err := inv.Check(); err != nil {
				ir.Err = err.Error()
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s/%s: invariant %q: %v", d.Name, st.Name, inv.Name, err))
				failed = true
			}
			sr.Invariants = append(sr.Invariants, ir)
		}
		rep.Steps = append(rep.Steps, sr)
	}
	if rep.InvariantsChecked == 0 {
		rep.Failures = append(rep.Failures, d.Name+": drill checked no invariants")
	}
	return rep
}

// Constructor names one shipped drill and builds it from a seed (the seed
// feeds phr.GenerateWorkloadFrom, so a failing run reproduces exactly).
type Constructor struct {
	Name string
	New  func(seed int64) (*Drill, error)
}

// Drills lists every shipped drill in a stable order.
func Drills() []Constructor {
	return []Constructor{
		{"revocation", RevocationDrill},
		{"key-rotation", KeyRotationDrill},
		{"break-glass", BreakGlassDrill},
		{"federation-churn", FederationChurnDrill},
	}
}
