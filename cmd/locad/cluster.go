package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"localadvice/internal/cluster"
	"localadvice/internal/server"
)

// shardProc is one spawned shard child.
type shardProc struct {
	name string
	cmd  *exec.Cmd
	url  string
}

// cmdCluster runs a local shard fleet: N `locad serve -role shard` child
// processes on ephemeral ports, fronted by an internal/cluster router on
// -addr. SIGTERM/SIGINT drains the router, then terminates the shards.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "router listen address (use :0 for an ephemeral port)")
	shards := fs.Int("shards", 2, "number of shard processes to spawn")
	replicas := fs.Int("replicas", 1, "hot-artifact replica count K")
	hotThreshold := fs.Int("hot-threshold", 8, "cached reads of one key before its artifacts replicate")
	healthInterval := fs.Duration("health-interval", time.Second, "shard health-check period")
	cacheMB := fs.Int("cache-mb", 64, "per-shard artifact cache budget in MiB")
	maxInflight := fs.Int("max-inflight", 0, "per-shard in-flight bound (0 = 4 x GOMAXPROCS)")
	maxNodes := fs.Int("max-nodes", 200_000, "largest accepted graph (nodes)")
	storeRoot := fs.String("store-root", "", "shared persistence root; shard i stores under <root>/shard<i> (empty = no persistence)")
	noFallback := fs.Bool("no-fallback", false, "answer 503 shard_down instead of computing locally when no shard is healthy")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyWorkers(*workers)
	if *shards < 1 {
		return fmt.Errorf("cluster needs at least 1 shard, got %d", *shards)
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// The defer covers every exit path — clean shutdown, router bind
	// failure, mid-spawn failure — so no shard outlives the cluster
	// process. SIGTERM goes out to all shards first, then each is reaped
	// within a shared grace budget and SIGKILLed if it ignores the TERM.
	procs := make([]*shardProc, 0, *shards)
	defer func() {
		for _, p := range procs {
			if p.cmd.Process != nil {
				p.cmd.Process.Signal(syscall.SIGTERM)
			}
		}
		deadline := time.Now().Add(*grace)
		for _, p := range procs {
			waitOrKill(p.cmd, time.Until(deadline))
		}
	}()

	fleet := make([]cluster.Shard, 0, *shards)
	for i := 0; i < *shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		shardArgs := []string{
			"serve", "-addr", "127.0.0.1:0", "-role", "shard",
			"-cache-mb", fmt.Sprint(*cacheMB),
			"-max-inflight", fmt.Sprint(*maxInflight),
			"-max-nodes", fmt.Sprint(*maxNodes),
		}
		if *storeRoot != "" {
			shardArgs = append(shardArgs, "-store-dir", filepath.Join(*storeRoot, name))
		}
		p, err := spawnShard(exe, name, shardArgs)
		if err != nil {
			return fmt.Errorf("spawning %s: %w", name, err)
		}
		procs = append(procs, p)
		// The cluster smoke parses these lines to learn shard PIDs (it kills
		// one to exercise degradation).
		fmt.Printf("locad cluster: %s pid %d at %s\n", name, p.cmd.Process.Pid, p.url)
		fleet = append(fleet, cluster.Shard{Name: name, URL: p.url})
	}

	// The router's embedded server is the fallback compute path and the
	// /v1/experiment backend; it never persists (the shards own the stores).
	local, err := server.New(server.Config{
		CacheBytes:  int64(*cacheMB) << 20,
		MaxInflight: *maxInflight,
		MaxNodes:    *maxNodes,
		Role:        "router",
	})
	if err != nil {
		return err
	}
	rt, err := cluster.New(cluster.Config{
		Shards:          fleet,
		Replicas:        *replicas,
		HotThreshold:    *hotThreshold,
		HealthInterval:  *healthInterval,
		DisableFallback: *noFallback,
		Local:           local,
	})
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Scripts and the loadgen cluster sweep poll for this exact line.
	fmt.Printf("locad cluster: router listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- rt.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "locad cluster: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := rt.Shutdown(sctx); err != nil {
			return fmt.Errorf("router shutdown: %w", err)
		}
		return <-errc
	}
}

// spawnShard starts one `locad serve` child and waits for its listen line
// to learn the bound address.
func spawnShard(exe, name string, args []string) (*shardProc, error) {
	cmd, addr, err := spawnAwaitLine(exe, args, "locad serve: listening on ", 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &shardProc{name: name, cmd: cmd, url: "http://" + addr}, nil
}

// spawnAwaitLine starts a locad child process and scans its stdout for a
// line with the given prefix, returning the remainder (the bound address).
// The child's stderr passes through; its stdout keeps draining after the
// match so the child never blocks on a full pipe. On the error paths here
// the child is terminated gracefully — SIGTERM, a reaping grace period,
// then SIGKILL — so it can still run its own shutdown.
func spawnAwaitLine(exe string, args []string, prefix string, timeout time.Duration) (*exec.Cmd, string, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}

	addrCh := make(chan string, 1)
	sc := bufio.NewScanner(stdout)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		close(addrCh)
		for sc.Scan() {
		}
	}()

	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			terminateProc(cmd, 5*time.Second)
			return nil, "", fmt.Errorf("child exited before printing %q", prefix)
		}
		return cmd, addr, nil
	case <-time.After(timeout):
		terminateProc(cmd, 5*time.Second)
		return nil, "", fmt.Errorf("no %q line within %s", prefix, timeout)
	}
}

// terminateProc ends a spawned child gracefully: SIGTERM, a bounded wait
// for the exit, then SIGKILL escalation. Reaps the child; callers must not
// Wait again.
func terminateProc(cmd *exec.Cmd, grace time.Duration) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	waitOrKill(cmd, grace)
}

// waitOrKill reaps a child that has already been told to exit, escalating
// to SIGKILL if it is still running after the grace period.
func waitOrKill(cmd *exec.Cmd, grace time.Duration) {
	if cmd.Process == nil {
		return
	}
	if grace < 0 {
		grace = 0
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait() // a child killed externally reports an error; that's fine
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		cmd.Process.Kill()
		<-done
	}
}
