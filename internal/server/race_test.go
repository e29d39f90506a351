package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestRaceSingleflightComputesOnce hammers one fresh server with identical
// decode requests from many goroutines and asserts the cache's singleflight
// collapsed them: exactly one compute per artifact (graph, advice, compiled
// table, decode result) no matter how many callers raced.
func TestRaceSingleflightComputesOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":48}}`
	const goroutines = 24

	var wg sync.WaitGroup
	codes := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doReq(t, s, "POST", "/v1/decode", body)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++ // the pool bound may legitimately shed some of the burst
		default:
			t.Errorf("goroutine %d: status %d", i, code)
		}
	}
	if shed == goroutines {
		t.Fatal("every request was shed; nothing exercised the cache")
	}

	cs := s.cache.Stats()
	// The decode pipeline touches exactly four keys: graph, advice, table,
	// decode result. Concurrency must not inflate that.
	if cs.Computes != 4 {
		t.Errorf("computes = %d, want exactly 4 (graph, advice, table, decode)", cs.Computes)
	}
	served := uint64(goroutines - shed)
	if cs.Hits+cs.Dedups < served-1 {
		t.Errorf("hits %d + dedups %d < %d served-1: some requests recomputed",
			cs.Hits, cs.Dedups, served)
	}
}

// TestRaceWarmMatchesCold runs concurrent warm requests against a server
// whose cold answer is known, and asserts every raw response body equals
// the cold one except for the values of "cached" and "elapsed_nanos". The
// warm bodies are all assembled from one artifact's shared rendered bytes.
// orient covers a body with edge labels.
func TestRaceWarmMatchesCold(t *testing.T) {
	for _, pair := range []struct{ schema, spec string }{
		{"mis", `{"family":"cycle","n":40}`},
		{"orient", `{"family":"cycle","n":60}`},
	} {
		s := newTestServer(t, Config{})
		warmBody := `{"schema":"` + pair.schema + `","graph":` + pair.spec + `}`
		coldBody := `{"schema":"` + pair.schema + `","graph":` + pair.spec + `,"cache":false}`

		w := doReq(t, s, "POST", "/v1/decode", coldBody)
		if w.Code != 200 {
			t.Fatalf("%s cold decode: %d %s", pair.schema, w.Code, w.Body)
		}
		want := maskVolatile(w.Body.Bytes())

		const goroutines = 16
		got := make([]string, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := doReq(t, s, "POST", "/v1/decode", warmBody)
				if w.Code == http.StatusTooManyRequests {
					got[i] = want // shed; nothing to compare
					return
				}
				if w.Code != 200 {
					t.Errorf("%s goroutine %d: status %d: %s", pair.schema, i, w.Code, w.Body)
					return
				}
				got[i] = maskVolatile(w.Body.Bytes())
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("%s goroutine %d: warm response differs from cold\n got: %s\nwant: %s", pair.schema, i, g, want)
			}
		}
	}
}

// TestRaceMixedEndpoints drives every endpoint concurrently — decodes,
// encodes, verifies, stats scrapes and cache flushes racing each other — as
// a pure data-race probe for the cache generation logic and metrics.
func TestRaceMixedEndpoints(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 64})
	bodies := [][2]string{
		{"/v1/decode", `{"schema":"mis","graph":{"family":"cycle","n":24}}`},
		{"/v1/encode", `{"schema":"mis","graph":{"family":"cycle","n":24}}`},
		{"/v1/decode", `{"schema":"color3","graph":{"family":"cycle","n":40}}`},
		{"/v1/verify", `{"schema":"mis","graph":{"family":"cycle","n":24}}`},
		{"/v1/cache/flush", `{}`},
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := bodies[i%len(bodies)]
			w := doReq(t, s, "POST", b[0], b[1])
			if w.Code >= 500 {
				t.Errorf("%s: status %d: %s", b[0], w.Code, w.Body)
			}
			doReq(t, s, "GET", "/v1/stats", "")
		}(i)
	}
	wg.Wait()
}

// TestRaceDrainMidFlight starts a real listener, fires requests, then shuts
// the server down while they are in flight: Shutdown must wait for every
// admitted request to finish (no connection resets, each answered 200), and
// Serve must return cleanly.
func TestRaceDrainMidFlight(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 32})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	// Distinct graph sizes defeat the cache so every request does real work
	// while the shutdown lands.
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"schema":"mis","graph":{"family":"cycle","n":%d},"cache":false}`, 2048+i)
			resp, err := client.Post(base+"/v1/decode", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	// Shut down only once every request has been admitted (or already
	// answered): a dial that lands after the listener closes would be
	// refused, which is not the drain behavior under test.
	admitted := func() int64 {
		return s.inflight.Load() + int64(s.metrics["decode"].Snapshot().Count)
	}
	for deadline := time.Now().Add(10 * time.Second); admitted() < goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted before shutdown", admitted(), goroutines)
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d interrupted by shutdown: %v", i, err)
		}
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Serve did not return after Shutdown")
	}

	// The drained server refuses new work.
	if _, err := client.Post(base+"/v1/decode", "application/json",
		bytes.NewReader([]byte(`{"schema":"mis","graph":{"family":"cycle","n":8}}`))); err == nil {
		t.Error("request succeeded after shutdown")
	}
}

// TestRaceLoadShedding pins the 429 path deterministically: with the
// single pool slot occupied, every request is shed (not queued, not
// crashed) and counted in /v1/stats; once the slot frees, service resumes.
func TestRaceLoadShedding(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	const body = `{"schema":"mis","graph":{"family":"cycle","n":12}}`

	s.sem <- struct{}{} // occupy the only slot, as an admitted request would
	const burst = 8
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doReq(t, s, "POST", "/v1/decode", body).Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("goroutine %d: status %d, want 429 while the pool is full", i, code)
		}
	}
	<-s.sem

	if w := doReq(t, s, "POST", "/v1/decode", body); w.Code != http.StatusOK {
		t.Errorf("status %d after the slot freed, want 200 (body: %s)", w.Code, w.Body)
	}
	var st StatsResponse
	w := doReq(t, s, "GET", "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shed != burst {
		t.Errorf("stats shed = %d, want %d", st.Shed, burst)
	}
	// Healthz bypasses the pool: it must answer even under saturation.
	s.sem <- struct{}{}
	if w := doReq(t, s, "GET", "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz under saturation: %d", w.Code)
	}
	<-s.sem
}
