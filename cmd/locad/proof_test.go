package main

import (
	"fmt"
	"strings"
	"testing"

	"localadvice/internal/harness"
)

// proveString regenerates the proof for the given problem on the graph the
// CLI would build from (kind, n, seed) and formats it as the bit string
// `locad prove` prints — the input format of `locad verifyproof`.
func proveString(t *testing.T, problem, kind string, n int, seed int64, radius int) string {
	t.Helper()
	g, err := harness.BuildGraph(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := growthSchema(problem, radius)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := s.Prove(g)
	if err != nil {
		t.Fatalf("Prove(%s on %s): %v", problem, kind, err)
	}
	var sb strings.Builder
	for v := 0; v < g.N(); v++ {
		sb.WriteString(proof[v].String())
	}
	return sb.String()
}

// TestProveVerifyRoundTrip drives proof mode end to end through the CLI:
// `prove` emits a 1-bit-per-node proof and `verifyproof`, given that proof
// string and the same graph flags, must print ACCEPTED. Rejection calls
// os.Exit, so only honest proofs are exercised here; malformed proof
// strings are covered by TestRunErrors.
func TestProveVerifyRoundTrip(t *testing.T) {
	tests := []struct {
		problem string
		kind    string
		n       int
		radius  int
	}{
		{"3-coloring", "cycle", 300, 40},
		{"mis", "cycle", 150, 25},
		{"maximal-matching", "path", 240, 40},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.problem, func(t *testing.T) {
			const seed = int64(1)
			proof := proveString(t, tt.problem, tt.kind, tt.n, seed, tt.radius)
			if len(proof) != tt.n {
				t.Fatalf("proof has %d bits for %d nodes", len(proof), tt.n)
			}
			if strings.Trim(proof, "01") != "" {
				t.Fatalf("proof contains non-bit characters: %q", proof)
			}
			args := []string{"verifyproof",
				"-graph", tt.kind, "-n", fmt.Sprint(tt.n), "-seed", fmt.Sprint(seed),
				"-problem", tt.problem, "-radius", fmt.Sprint(tt.radius),
				"-proof", proof}
			out := captureStdout(t, func() {
				if err := run(args); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
			})
			want := fmt.Sprintf("ACCEPTED by all %d nodes", tt.n)
			if !strings.Contains(out, want) {
				t.Errorf("verifyproof output %q does not contain %q", out, want)
			}
		})
	}
}

// TestProveOutput checks the prove subcommand's own report: the printed
// proof string has one bit per node and the built-in verifier accepts it.
func TestProveOutput(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"prove", "-graph", "cycle", "-n", "150", "-problem", "mis", "-radius", "25"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "verifier: accepted=true") {
		t.Errorf("prove did not self-verify:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var bits string
	for _, l := range lines {
		if strings.Trim(l, "01") == "" && len(l) > 0 {
			bits = l
		}
	}
	if len(bits) != 150 {
		t.Errorf("printed proof string has %d bits, want 150", len(bits))
	}
}
