package main

import (
	"localadvice/internal/local"
	"localadvice/internal/persist"

	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the locad binary for subprocess-spawning subcommands:
// `locad cluster` re-executes os.Executable() as its shard children, and in
// tests that executable is this test binary. Dispatch those argv shapes
// straight into run() so spawned children behave like the real CLI.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "serve" || os.Args[1] == "cluster") {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunSubcommands(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	tests := []struct {
		name string
		args []string
	}{
		{"orient cycle", []string{"orient", "-graph", "cycle", "-n", "120"}},
		{"orient torus", []string{"orient", "-graph", "torus", "-n", "36"}},
		{"color3", []string{"color3", "-graph", "cycle", "-n", "80"}},
		{"deltacolor torus", []string{"deltacolor", "-graph", "torus", "-n", "36"}},
		{"compress", []string{"compress", "-d", "4", "-n", "80"}},
		{"graphinfo", []string{"graphinfo", "-graph", "grid", "-n", "49"}},
		{"exp e2", []string{"exp", "E2"}},
		{"engine scheduler", []string{"engine", "-graph", "grid", "-n", "100", "-radius", "2", "-engine", "scheduler", "-workers", "2"}},
		{"engine ball", []string{"engine", "-graph", "cycle", "-n", "64", "-engine", "ball"}},
		{"engine sequential", []string{"engine", "-graph", "grid", "-n", "49", "-engine", "sequential"}},
		{"engine frugal", []string{"engine", "-graph", "grid", "-n", "100", "-engine", "frugal"}},
		{"trace frugal", []string{"trace", "-graph", "grid", "-n", "49", "-engine", "frugal", "-o", tracePath}},
		{"fault crash ball", []string{"fault", "-graph", "cycle", "-n", "30", "-class", "crash", "-node", "3", "-round", "2", "-engine", "ball"}},
		{"fault crash frugal", []string{"fault", "-graph", "cycle", "-n", "30", "-class", "crash", "-node", "3", "-round", "2", "-engine", "frugal"}},
		{"prove mis", []string{"prove", "-graph", "cycle", "-n", "150", "-problem", "mis", "-radius", "25"}},
		{"help", []string{"help"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"unknown experiment", []string{"exp", "E99"}},
		{"unknown graph", []string{"orient", "-graph", "klein-bottle"}},
		{"unknown engine", []string{"engine", "-engine", "steam"}},
		{"removed engine", []string{"engine", "-engine", "goroutine"}},
		{"unknown crash engine", []string{"fault", "-class", "crash", "-engine", "message"}},
		{"bad proof problem", []string{"prove", "-problem", "traveling-salesman"}},
		{"wrong proof length", []string{"verifyproof", "-graph", "cycle", "-n", "10", "-proof", "01"}},
		{"bad proof chars", []string{"verifyproof", "-graph", "cycle", "-n", "3", "-proof", "0x1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

// TestNegativeRadiusOneLine pins that engine, trace and crash-fault runs
// with -radius -1 fail on every engine with the typed negative-radius error,
// reported as a single line.
func TestNegativeRadiusOneLine(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, engine := range local.EngineNames() {
		for _, args := range [][]string{
			{"engine", "-graph", "cycle", "-n", "20", "-radius", "-1", "-engine", engine},
			{"trace", "-graph", "cycle", "-n", "20", "-radius", "-1", "-engine", engine, "-o", out},
			{"fault", "-graph", "cycle", "-n", "20", "-class", "crash", "-radius", "-1", "-engine", engine},
		} {
			err := run(args)
			if !errors.Is(err, local.ErrNegativeRadius) || strings.Contains(err.Error(), "\n") {
				t.Errorf("run(%v): err = %v, want a one-line ErrNegativeRadius", args, err)
			}
		}
	}
}

func TestMakeGraphFamilies(t *testing.T) {
	for _, kind := range []string{"cycle", "path", "grid", "torus", "regular", "planted3", "planted4", "gnp"} {
		g, err := makeGraph(kind, 40, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() < 30 {
			t.Errorf("%s: suspiciously small graph n=%d", kind, g.N())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestGrowthSchemaNames(t *testing.T) {
	for _, p := range []string{"3-coloring", "4-coloring", "mis", "maximal-matching"} {
		if _, err := growthSchema(p, 20); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if _, err := growthSchema("nope", 20); err == nil {
		t.Error("unknown problem accepted")
	}
}

func TestHead(t *testing.T) {
	if got := head([]int{1, 2, 3}, 2); len(got) != 2 {
		t.Errorf("head = %v", got)
	}
	if got := head([]int{1}, 5); len(got) != 1 {
		t.Errorf("head = %v", got)
	}
}

func TestUsageMentionsAllSubcommands(t *testing.T) {
	// usage writes to stderr; just ensure the command table stays in sync
	// by checking run() dispatches everything usage lists.
	for _, sub := range []string{"exp", "orient", "color3", "deltacolor", "compress", "graphinfo", "engine", "prove", "verifyproof"} {
		// Dispatching with bad flags still proves the subcommand exists:
		// flag parse errors differ from "unknown subcommand".
		err := run([]string{sub, "-definitely-not-a-flag"})
		if err != nil && strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("subcommand %q not dispatched", sub)
		}
	}
}

func TestDotGenLoad(t *testing.T) {
	dir := t.TempDir()
	el := dir + "/g.el"
	if err := run([]string{"gen", "-graph", "torus", "-n", "25", "-o", el}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"load", "-i", el}); err != nil {
		t.Fatal(err)
	}
	dot := dir + "/g.dot"
	if err := run([]string{"dot", "-graph", "cycle", "-n", "40", "-schema", "orient", "-o", dot}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Error("dot output missing digraph")
	}
	if err := run([]string{"dot", "-graph", "cycle", "-n", "20", "-schema", "nope"}); err == nil {
		t.Error("unknown overlay accepted")
	}
	if err := run([]string{"load", "-i", dir + "/missing.el"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"load"}); err == nil {
		t.Error("load without -i accepted")
	}
}

// TestClusterKillsShardsOnBindConflict forces `locad cluster` down its
// mid-spawn error path — the shard comes up fine, then the router's own
// net.Listen hits an occupied address — and asserts the already-spawned
// shard process does not outlive the failed command. Before the teardown
// fix, error paths leaked live shard children.
func TestClusterKillsShardsOnBindConflict(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// cmdCluster prints "locad cluster: shard0 pid N at URL" on stdout;
	// capture it through a pipe to learn the spawned pid.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run([]string{"cluster", "-addr", l.Addr().String(), "-shards", "1", "-grace", "3s"})
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	r.Close()

	if runErr == nil {
		t.Fatalf("cluster on occupied %s succeeded, want bind error; output:\n%s", l.Addr(), out)
	}

	var pids []int
	for _, line := range strings.Split(string(out), "\n") {
		rest, ok := strings.CutPrefix(line, "locad cluster: shard")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) >= 3 && fields[1] == "pid" {
			pid, err := strconv.Atoi(fields[2])
			if err != nil {
				t.Fatalf("unparseable pid in %q: %v", line, err)
			}
			pids = append(pids, pid)
		}
	}
	if len(pids) != 1 {
		t.Fatalf("expected 1 shard pid line, got %d; output:\n%s", len(pids), out)
	}

	// The teardown defer reaps each shard before run() returns, so the pid
	// must already be gone; poll briefly to absorb scheduler lag.
	for _, pid := range pids {
		deadline := time.Now().Add(5 * time.Second)
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				syscall.Kill(pid, syscall.SIGKILL)
				t.Fatalf("shard pid %d still alive after cluster bind failure", pid)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func TestStoreSubcommand(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("advice:test", persist.KindAdvice, []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("table:test", persist.KindTable, []byte("payload-t")); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"store", "ls", "-dir", dir},
		{"store", "verify", "-dir", dir},
		{"store", "gc", "-dir", dir, "-max-mb", "64"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}

	// gc to a zero budget evicts everything.
	if err := run([]string{"store", "gc", "-dir", dir, "-max-mb", "0"}); err != nil {
		t.Fatal(err)
	}
	if recs, err := st.List(); err != nil || len(recs) != 0 {
		t.Errorf("after gc -max-mb 0: %d records, err %v", len(recs), err)
	}

	// verify reports damage with a failing exit.
	if err := st.Put("k", persist.KindAdvice, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recs, err := st.List()
	if err != nil || len(recs) != 1 {
		t.Fatalf("List: %v, %d records", err, len(recs))
	}
	path := dir + "/" + recs[0].File
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "verify", "-dir", dir}); err == nil {
		t.Error("verify of a corrupt store succeeded")
	}

	// Usage errors.
	for _, args := range [][]string{
		{"store"},
		{"store", "frobnicate", "-dir", dir},
		{"store", "ls"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
