package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"localadvice/internal/server"
)

// serverProc is one `locad serve` child process on a loopback port.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// serverOpts are the serve flags a workload varies.
type serverOpts struct {
	cacheMB  int
	storeDir string
	timeout  time.Duration
}

// startServer launches locad serve and returns once /v1/healthz answers.
func startServer(locad string, o serverOpts) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-cache-mb", strconv.Itoa(o.cacheMB)}
	if o.storeDir != "" {
		args = append(args, "-store-dir", o.storeDir)
	}
	if o.timeout > 0 {
		args = append(args, "-timeout", o.timeout.String())
	}
	cmd := exec.Command(locad, args...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start locad serve: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "locad serve: listening on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	go func() { p.done <- cmd.Wait() }()
	select {
	case a, ok := <-addr:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("locad serve exited before listening")
		}
		p.base = "http://" + a
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("locad serve did not report its address")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("locad serve not healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM) and waits for it, killing it if
// it has not exited after a few seconds.
func (p *serverProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// kill ends the server at once (used for throwaway servers, whose
// timed-out computations would otherwise keep running).
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // an already-exited child is fine
	<-p.done
}

// procCPU returns process pid's user+system CPU time so far, in whole
// clock ticks.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// rssEvery is the RSS sampling interval: 200 samples a second, so a
// second of rounds leaves ten samples beyond the p95.
const rssEvery = 5 * time.Millisecond

// rssSampler records a process's resident set size every rssEvery until
// finish is called.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			// statm: total program size, then resident pages.
			b, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			if f := strings.Fields(string(b)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					s.samples = append(s.samples, pages*page/(1<<20))
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// stats scrapes /v1/stats.
func (p *serverProc) stats(c *http.Client) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := c.Get(p.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newClient returns a client that keeps one idle connection per loop.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and returns the status and body.
func post(c *http.Client, url, ctype string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scratchDir returns a fresh directory under the benchmark's output root.
func scratchDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
