package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The benchmark shares a few cores of a host whose other tenants come and
// go. For seconds at a time a busy neighbour (a sibling hyperthread, shared
// caches, memory bandwidth) makes every instruction on a vCPU run up to 1.6
// times slower, so wall time and CPU time per request both move by a third
// between runs of the same code. The reference kernel below measures that
// speed: a fixed mix of the work the server does (JSON, hashing, sorting,
// maps, allocation), built from the Go standard library only, so no change
// to the repository moves it. A calibration point runs it on every vCPU at
// once; each unit of timed work (a round, an experiment, a set-up) is
// bracketed by a point before and after it, never overlapped by one, and
// its times are multiplied by refNominal ÷ (the mean of the two points):
// they read as if measured on a host where the kernel takes refNominal.
// host.ref_ms reports the unscaled points.

// refNominal is the reference speed: the kernel's CPU time per vCPU, with
// every vCPU running it, that scaled times are expressed at. On an
// otherwise idle 2-vCPU Intel Xeon guest the kernel takes 1.0–1.1 ms.
const refNominal = time.Millisecond

// refReps is how many times one calibration point runs the kernel per
// vCPU; the point is the fastest run, the others absorb a context switch or
// a GC.
const refReps = 8

type refDoc struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Tags  []string          `json:"tags"`
	Attrs map[string]string `json:"attrs"`
}

// refInput is the kernel's fixed input.
type refInput struct {
	docs []refDoc
	buf  []byte
	ints []int
}

func newRefInput() *refInput {
	rng := rand.New(rand.NewSource(1))
	in := &refInput{buf: make([]byte, 64<<10), ints: make([]int, 4096)}
	rng.Read(in.buf)
	for i := range in.ints {
		in.ints[i] = rng.Int()
	}
	for i := 0; i < 64; i++ {
		d := refDoc{ID: i, Name: "doc-" + strconv.Itoa(i), Attrs: map[string]string{}}
		for j := 0; j < 4; j++ {
			d.Tags = append(d.Tags, strconv.Itoa(rng.Int()))
			d.Attrs[strconv.Itoa(j)] = strconv.Itoa(rng.Int())
		}
		in.docs = append(in.docs, d)
	}
	return in
}

// kernel runs the fixed work once and returns a value derived from all of
// it, so none of it can be optimised away. It only reads in.
func (in *refInput) kernel() int {
	out := 0
	b, _ := json.Marshal(in.docs) // plain structs always marshal
	var docs []refDoc
	_ = json.Unmarshal(b, &docs)
	out += len(docs)
	sum := sha256.Sum256(in.buf)
	out += int(sum[0])
	ints := append([]int(nil), in.ints...)
	sort.Ints(ints)
	out += ints[len(ints)/2] & 1
	m := make(map[int]int, 0)
	for i, v := range in.ints {
		m[v%2048] += i
	}
	return out + len(m)
}

var refIn = newRefInput()

// refSink keeps the kernel's results live.
var refSink atomic.Int64

// threadCPU returns the calling thread's CPU time in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID; getrusage counts whole scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refPoint runs the kernel on every vCPU at once and returns the mean over
// vCPUs of the fastest of refReps runs: the host may slow one vCPU and not
// the other.
func refPoint() time.Duration {
	n := runtime.NumCPU()
	best := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range best {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for k := 0; k < refReps; k++ {
				t := threadCPU()
				refSink.Add(int64(refIn.kernel()))
				if d := threadCPU() - t; best[i] == 0 || d < best[i] {
					best[i] = d
				}
			}
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum / time.Duration(n)
}

// bracket runs f between two calibration points and returns their mean.
func bracket(f func()) time.Duration {
	before := refPoint()
	f()
	return (before + refPoint()) / 2
}

// hostScale is the factor that takes a time measured at host speed ref to
// the reference speed.
func hostScale(ref time.Duration) float64 {
	if ref <= 0 {
		return 1
	}
	return float64(refNominal) / float64(ref)
}
