package lll

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"localadvice/internal/obs"
)

// assertBadFree fails unless every event of in is satisfied under a — the
// naive full-recheck reference: no incidence structure, no incremental
// bookkeeping, just Bad(e, a) for every event.
func assertBadFree(t *testing.T, in *Instance, a []int) {
	t.Helper()
	for e := 0; e < in.NumEvents; e++ {
		if in.Bad(e, a) {
			t.Fatalf("event %d violated under %v", e, a)
		}
	}
}

// TestDeterministicBadFreeOnKSAT is the core derandomization property: on
// random k-SAT instances satisfying the symmetric LLL condition, the
// conditional-expectations walk (plus repair) produces an assignment under
// which the naive full recheck finds no violated event — the same guarantee
// the Moser–Tardos reference provides, with zero resamplings.
func TestDeterministicBadFreeOnKSAT(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		in, _, _ := kSATInstance(40, 30, 7, rng)
		res, err := SolveDeterministic(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertBadFree(t, in, res.Assignment)
		if res.Resamplings != 0 {
			t.Fatalf("trial %d: deterministic path reported %d resamplings", trial, res.Resamplings)
		}

		// The Moser–Tardos reference solves the same instance; both outputs
		// are valid, only the deterministic one is seed-free.
		mt, err := Solve(in, rand.New(rand.NewSource(int64(trial))), 1<<20)
		if err != nil {
			t.Fatalf("trial %d: MT reference: %v", trial, err)
		}
		assertBadFree(t, in, mt.Assignment)
	}
}

// TestDeterministicIsDeterministic pins bit-identical output across repeated
// runs — the property the seed-independence wall depends on.
func TestDeterministicIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, _, _ := kSATInstance(30, 24, 6, rng)
	first, err := SolveDeterministic(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := SolveDeterministic(in)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again.Assignment) != fmt.Sprint(first.Assignment) {
			t.Fatalf("run %d diverged: %v vs %v", i, again.Assignment, first.Assignment)
		}
		if again.Evaluations != first.Evaluations {
			t.Fatalf("run %d evaluation count diverged: %d vs %d", i, again.Evaluations, first.Evaluations)
		}
	}
}

// TestDecomposedBadFreeAndDeterministic pins the decomposition-guided
// variant: always Bad-free, always identical across runs, and identical to
// itself under an installed collector (the metrics must not perturb the
// walk). SolveDecomposed may legitimately fix variables in a different
// order than SolveDeterministic, so the two paths are each pinned
// individually rather than against each other.
func TestDecomposedBadFreeAndDeterministic(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		in, _, _ := kSATInstance(36, 28, 7, rng)
		res, err := SolveDecomposed(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertBadFree(t, in, res.Assignment)
		c := &obs.Collector{}
		again, err := SolveDecomposedObserved(in, c)
		if err != nil {
			t.Fatalf("trial %d observed: %v", trial, err)
		}
		if fmt.Sprint(again.Assignment) != fmt.Sprint(res.Assignment) {
			t.Fatalf("trial %d: observed run diverged", trial)
		}
		var balls int64
		for _, e := range c.Events() {
			if e.Kind == "lll.balls" {
				balls += e.Value
			}
		}
		if in.NumEvents > 0 && balls < 1 {
			t.Fatalf("trial %d: decomposed run reported %d balls", trial, balls)
		}
	}
}

// TestDeterministicEventFreeVars pins the degenerate corners: variables with
// no incident events take value 0, and an instance with no events at all is
// the all-zero assignment.
func TestDeterministicEventFreeVars(t *testing.T) {
	in := &Instance{
		NumVars:    4,
		DomainSize: func(int) int { return 3 },
		NumEvents:  0,
		Vars:       func(int) []int { return nil },
		Bad:        func(int, []int) bool { return false },
	}
	for _, solve := range []func(*Instance) (Result, error){SolveDeterministic, SolveDecomposed} {
		res, err := solve(in)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range res.Assignment {
			if x != 0 {
				t.Errorf("event-free var %d = %d, want 0", v, x)
			}
		}
	}
}

// TestDeterministicRepairRuns forces the walk into a residual violation the
// repair pass must clean up: two "not all equal" events over three binary
// variables each, arranged so the union bound cannot see the conflict until
// late. The exact construction matters less than the postcondition — the
// result is Bad-free and the repair counter is consistent.
func TestDeterministicRepairRuns(t *testing.T) {
	// Event e is bad iff its three variables are all equal. CE fixes vars in
	// order; all-zero prefixes look fine until the last variable of an event
	// forces a choice.
	events := [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}}
	in := &Instance{
		NumVars:    6,
		DomainSize: func(int) int { return 2 },
		NumEvents:  len(events),
		Vars:       func(e int) []int { return events[e] },
		Bad: func(e int, a []int) bool {
			v := events[e]
			return a[v[0]] == a[v[1]] && a[v[1]] == a[v[2]]
		},
	}
	res, err := SolveDeterministic(in)
	if err != nil {
		t.Fatal(err)
	}
	assertBadFree(t, in, res.Assignment)
	if res.Repairs < 0 {
		t.Fatalf("negative repair count %d", res.Repairs)
	}
}

// TestRepairStallTyped pins the typed stall error on a locally stuck
// instance: two events over one variable demanding opposite values. No
// single-event joint move can strictly decrease the violated count, so the
// solver must fail with ErrRepairStall — never loop, never return an
// invalid assignment.
func TestRepairStallTyped(t *testing.T) {
	in := &Instance{
		NumVars:    1,
		DomainSize: func(int) int { return 2 },
		NumEvents:  2,
		Vars:       func(int) []int { return []int{0} },
		Bad: func(e int, a []int) bool {
			if e == 0 {
				return a[0] != 0
			}
			return a[0] != 1
		},
	}
	for _, solve := range []func(*Instance) (Result, error){SolveDeterministic, SolveDecomposed} {
		_, err := solve(in)
		if !errors.Is(err, ErrRepairStall) {
			t.Fatalf("err = %v, want ErrRepairStall", err)
		}
	}
}

// TestEstimatorBudgetTyped pins the typed budget error: one event over 18
// binary variables leaves 2^17 completions free even after the first
// variable is fixed, past the 2^16 budget.
func TestEstimatorBudgetTyped(t *testing.T) {
	vars := make([]int, 18)
	for i := range vars {
		vars[i] = i
	}
	in := &Instance{
		NumVars:    18,
		DomainSize: func(int) int { return 2 },
		NumEvents:  1,
		Vars:       func(int) []int { return vars },
		Bad:        func(int, []int) bool { return false },
	}
	_, err := SolveDeterministic(in)
	if !errors.Is(err, ErrEstimatorBudget) {
		t.Fatalf("err = %v, want ErrEstimatorBudget", err)
	}
}

// TestResamplingCapTyped is the typed-cap table test: the randomized solver
// must return a ResamplingCapError that errors.Is-matches the sentinel and
// errors.As-exposes the stuck event and the resampling count, with a
// human-readable one-line message.
func TestResamplingCapTyped(t *testing.T) {
	alwaysBad := &Instance{
		NumVars:    2,
		DomainSize: func(int) int { return 2 },
		NumEvents:  3,
		Vars:       func(e int) []int { return []int{e % 2} },
		Bad:        func(int, []int) bool { return true },
	}
	tests := []struct {
		name string
		in   *Instance
		cap  int
	}{
		{"cap 1", alwaysBad, 1},
		{"cap 5", alwaysBad, 5},
		{"cap 50", alwaysBad, 50},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Solve(tt.in, rand.New(rand.NewSource(9)), tt.cap)
			if err == nil {
				t.Fatal("always-bad instance solved")
			}
			if !errors.Is(err, ErrResamplingCap) {
				t.Fatalf("errors.Is(err, ErrResamplingCap) = false for %v", err)
			}
			var capErr *ResamplingCapError
			if !errors.As(err, &capErr) {
				t.Fatalf("errors.As failed for %v", err)
			}
			if capErr.Resamplings != tt.cap {
				t.Errorf("Resamplings = %d, want the cap %d", capErr.Resamplings, tt.cap)
			}
			if capErr.Event < 0 || capErr.Event >= tt.in.NumEvents {
				t.Errorf("Event = %d out of range", capErr.Event)
			}
			if capErr.Violated < 1 || capErr.Violated > tt.in.NumEvents {
				t.Errorf("Violated = %d out of range", capErr.Violated)
			}
			msg := err.Error()
			for _, frag := range []string{"resampling", "violated"} {
				if !contains(msg, frag) {
					t.Errorf("message %q lacks %q", msg, frag)
				}
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestDeterministicValidatesInstance pins that the det paths run the same
// Instance validation as Solve.
func TestDeterministicValidatesInstance(t *testing.T) {
	bad := &Instance{NumVars: 1}
	if _, err := SolveDeterministic(bad); err == nil {
		t.Error("nil-callback instance accepted by SolveDeterministic")
	}
	if _, err := SolveDecomposed(bad); err == nil {
		t.Error("nil-callback instance accepted by SolveDecomposed")
	}
}

// TestDeterministicObservedMetrics pins the observed variants' event kinds
// and that evaluation counts match the Result.
func TestDeterministicObservedMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in, _, _ := kSATInstance(24, 18, 6, rng)
	c := &obs.Collector{}
	res, err := SolveDeterministicObserved(in, c)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, e := range c.Events() {
		got[e.Kind] += e.Value
	}
	if got["lll.events"] != int64(in.NumEvents) {
		t.Errorf("lll.events = %d, want %d", got["lll.events"], in.NumEvents)
	}
	if got["lll.evaluations"] != int64(res.Evaluations) {
		t.Errorf("lll.evaluations = %d, want %d", got["lll.evaluations"], res.Evaluations)
	}
	if res.Evaluations <= 0 {
		t.Errorf("deterministic run reported %d evaluations", res.Evaluations)
	}
}
