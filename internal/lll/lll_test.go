package lll

import (
	"fmt"
	"math/rand"
	"testing"
)

// kSATInstance builds a random k-SAT instance with n variables and m
// clauses, each clause over k distinct variables with random polarities.
func kSATInstance(n, m, k int, rng *rand.Rand) (*Instance, [][]int, [][]bool) {
	clauseVars := make([][]int, m)
	clauseNeg := make([][]bool, m)
	for c := 0; c < m; c++ {
		perm := rng.Perm(n)[:k]
		neg := make([]bool, k)
		for i := range neg {
			neg[i] = rng.Intn(2) == 0
		}
		clauseVars[c] = perm
		clauseNeg[c] = neg
	}
	in := &Instance{
		NumVars:    n,
		DomainSize: func(int) int { return 2 },
		NumEvents:  m,
		Vars:       func(e int) []int { return clauseVars[e] },
		Bad: func(e int, a []int) bool {
			// Bad = clause unsatisfied: every literal false.
			for i, v := range clauseVars[e] {
				val := a[v] == 1
				if clauseNeg[e][i] {
					val = !val
				}
				if val {
					return false
				}
			}
			return true
		},
	}
	return in, clauseVars, clauseNeg
}

func TestSolveKSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 7-SAT with each variable in few clauses satisfies the LLL condition
	// (p = 2^-7, d small); Moser-Tardos must find a satisfying assignment.
	in, _, _ := kSATInstance(60, 40, 7, rng)
	res, err := Solve(in, rng, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < in.NumEvents; e++ {
		if in.Bad(e, res.Assignment) {
			t.Fatalf("event %d still bad", e)
		}
	}
}

func TestSolveTrivial(t *testing.T) {
	in := &Instance{
		NumVars:    3,
		DomainSize: func(int) int { return 4 },
		NumEvents:  0,
		Vars:       func(int) []int { return nil },
		Bad:        func(int, []int) bool { return false },
	}
	res, err := Solve(in, rand.New(rand.NewSource(2)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resamplings != 0 {
		t.Errorf("resamplings = %d, want 0", res.Resamplings)
	}
	if len(res.Assignment) != 3 {
		t.Errorf("assignment length %d", len(res.Assignment))
	}
}

func TestSolveUnsatisfiableHitsCap(t *testing.T) {
	// An always-bad event can never be fixed.
	in := &Instance{
		NumVars:    1,
		DomainSize: func(int) int { return 2 },
		NumEvents:  1,
		Vars:       func(int) []int { return []int{0} },
		Bad:        func(int, []int) bool { return true },
	}
	if _, err := Solve(in, rand.New(rand.NewSource(3)), 50, nil); err == nil {
		t.Error("unsatisfiable instance solved")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		in   *Instance
	}{
		{"nil callbacks", &Instance{NumVars: 1}},
		{"empty domain", &Instance{
			NumVars:    1,
			DomainSize: func(int) int { return 0 },
			Vars:       func(int) []int { return nil },
			Bad:        func(int, []int) bool { return false },
		}},
		{"var out of range", &Instance{
			NumVars:    1,
			NumEvents:  1,
			DomainSize: func(int) int { return 2 },
			Vars:       func(int) []int { return []int{5} },
			Bad:        func(int, []int) bool { return false },
		}},
	}
	rng := rand.New(rand.NewSource(4))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Solve(tt.in, rng, 10, nil); err == nil {
				t.Error("invalid instance accepted")
			}
		})
	}
}

func TestSymmetricCondition(t *testing.T) {
	if !SymmetricConditionHolds(0.01, 10) {
		t.Error("e*0.01*11 <= 1 should hold")
	}
	if SymmetricConditionHolds(0.5, 10) {
		t.Error("e*0.5*11 <= 1 should not hold")
	}
}

func TestDependencyDegree(t *testing.T) {
	vars := [][]int{{0, 1}, {1, 2}, {3}}
	in := &Instance{
		NumVars:    4,
		DomainSize: func(int) int { return 2 },
		NumEvents:  3,
		Vars:       func(e int) []int { return vars[e] },
		Bad:        func(int, []int) bool { return false },
	}
	if d := DependencyDegree(in); d != 1 {
		t.Errorf("DependencyDegree = %d, want 1", d)
	}
}

func TestSolveRespectsDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{2, 3, 5}
	in := &Instance{
		NumVars:    3,
		DomainSize: func(v int) int { return sizes[v] },
		NumEvents:  1,
		Vars:       func(int) []int { return []int{0, 1, 2} },
		// Bad unless all distinct-ish: forces some resampling.
		Bad: func(_ int, a []int) bool { return a[0] == 1 && a[1] == 1 },
	}
	res, err := Solve(in, rng, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range res.Assignment {
		if val < 0 || val >= sizes[v] {
			t.Errorf("variable %d = %d outside domain %d", v, val, sizes[v])
		}
	}
}

// solveNaive is the straight-line reference implementation of the
// lowest-index Moser–Tardos rule: full recheck of every event after each
// resampling, no incremental bookkeeping. It consumes the rng exactly as
// Solve does (initial sample in variable order, resample draws in Vars
// order), so for the same seed it must produce the identical run.
func solveNaive(in *Instance, rng *rand.Rand, maxResamplings int) (Result, error) {
	assignment := make([]int, in.NumVars)
	for v := range assignment {
		assignment[v] = rng.Intn(in.DomainSize(v))
	}
	resamplings := 0
	for {
		event := -1
		for e := 0; e < in.NumEvents; e++ {
			if in.Bad(e, assignment) {
				event = e
				break
			}
		}
		if event == -1 {
			return Result{Assignment: assignment, Resamplings: resamplings}, nil
		}
		if resamplings >= maxResamplings {
			return Result{}, errCapExceeded
		}
		for _, v := range in.Vars(event) {
			assignment[v] = rng.Intn(in.DomainSize(v))
		}
		resamplings++
	}
}

var errCapExceeded = fmt.Errorf("naive: cap exceeded")

// TestSolveDeterministic: same seed ⇒ same assignment and resampling count,
// across instance shapes.
func TestSolveDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		base := rand.New(rand.NewSource(seed))
		in, _, _ := kSATInstance(50, 120, 5, base)
		first, err := Solve(in, rand.New(rand.NewSource(seed*3)), 1<<20, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := Solve(in, rand.New(rand.NewSource(seed*3)), 1<<20, nil)
			if err != nil {
				t.Fatalf("seed %d rep %d: %v", seed, rep, err)
			}
			if again.Resamplings != first.Resamplings {
				t.Fatalf("seed %d: resamplings %d then %d", seed, first.Resamplings, again.Resamplings)
			}
			if !slicesEqual(again.Assignment, first.Assignment) {
				t.Fatalf("seed %d: assignments differ between identical runs", seed)
			}
		}
	}
}

// TestSolveMatchesNaiveReference pins the dense violated-set bookkeeping
// (boolean array + lazy min-heap) against the naive full-recheck reference:
// with the same seed, the incremental solver must resample the exact same
// event sequence and land on the identical assignment.
func TestSolveMatchesNaiveReference(t *testing.T) {
	for _, seed := range []int64{2, 11, 23, 31, 53} {
		base := rand.New(rand.NewSource(seed))
		// Dense enough that events overlap and real resampling happens.
		in, _, _ := kSATInstance(40, 90, 4, base)
		fast, fastErr := Solve(in, rand.New(rand.NewSource(seed)), 4000, nil)
		naive, naiveErr := solveNaive(in, rand.New(rand.NewSource(seed)), 4000)
		if (fastErr == nil) != (naiveErr == nil) {
			t.Fatalf("seed %d: fast err %v, naive err %v", seed, fastErr, naiveErr)
		}
		if fastErr != nil {
			continue
		}
		if fast.Resamplings != naive.Resamplings {
			t.Fatalf("seed %d: fast resamplings %d, naive %d", seed, fast.Resamplings, naive.Resamplings)
		}
		if !slicesEqual(fast.Assignment, naive.Assignment) {
			t.Fatalf("seed %d: assignments diverge from the reference", seed)
		}
		if fast.Resamplings == 0 {
			t.Fatalf("seed %d: instance too easy to exercise bookkeeping", seed)
		}
	}
}

// TestDependencyDegreeMatchesNaive pins the slice-backed DependencyDegree
// against a map-based reference on random instances.
func TestDependencyDegreeMatchesNaive(t *testing.T) {
	naive := func(in *Instance) int {
		varToEvents := make(map[int][]int)
		for e := 0; e < in.NumEvents; e++ {
			for _, v := range in.Vars(e) {
				varToEvents[v] = append(varToEvents[v], e)
			}
		}
		maxDeg := 0
		for e := 0; e < in.NumEvents; e++ {
			nbrs := map[int]bool{}
			for _, v := range in.Vars(e) {
				for _, f := range varToEvents[v] {
					if f != e {
						nbrs[f] = true
					}
				}
			}
			if len(nbrs) > maxDeg {
				maxDeg = len(nbrs)
			}
		}
		return maxDeg
	}
	for _, seed := range []int64{3, 13, 29} {
		rng := rand.New(rand.NewSource(seed))
		in, _, _ := kSATInstance(30, 50, 3, rng)
		if got, want := DependencyDegree(in), naive(in); got != want {
			t.Fatalf("seed %d: DependencyDegree = %d, naive = %d", seed, got, want)
		}
	}
}

// TestSolveDuplicateVars checks an event listing the same variable twice:
// the resample must draw twice (rng parity with the Vars contract) and the
// incidence bookkeeping must not double-count the event.
func TestSolveDuplicateVars(t *testing.T) {
	in := &Instance{
		NumVars:    2,
		DomainSize: func(int) int { return 4 },
		NumEvents:  2,
		Vars: func(e int) []int {
			if e == 0 {
				return []int{0, 0}
			}
			return []int{1}
		},
		Bad: func(e int, a []int) bool {
			if e == 0 {
				return a[0] == 0
			}
			return a[1] == 0
		},
	}
	fast, err := Solve(in, rand.New(rand.NewSource(8)), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := solveNaive(in, rand.New(rand.NewSource(8)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Resamplings != naive.Resamplings || !slicesEqual(fast.Assignment, naive.Assignment) {
		t.Fatalf("duplicate-var event diverges: fast %+v, naive %+v", fast, naive)
	}
	if DependencyDegree(in) != 0 {
		t.Fatalf("DependencyDegree = %d, want 0 (events share no variable)", DependencyDegree(in))
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
