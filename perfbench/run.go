package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"privid/internal/query"
)

// setupReps is how many times an untraced run sets its stack up; it
// reports the median and times the last one.
const setupReps = 5

type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	dir     string
	clients int
}

// env is a stack brought to the state timing starts from.
type env struct {
	w       *world
	st      *stack
	c       *client
	src     jobSource
	ack     *acked
	boot    time.Duration
	prewarm time.Duration
	restart time.Duration
	// failures collects every outcome that differs from the plan.
	failures []string
	// runsBeforeRestart is the sandbox executions the engine ran before
	// setup restarted it.
	runsBeforeRestart float64
}

func (e *env) setupTime() time.Duration { return e.boot + e.prewarm + e.restart }

func (e *env) close() error {
	e.c.close()
	return e.st.close()
}

// setup generates the fleet, boots the stack in dir, runs the
// workload's prewarm jobs serially and, when the workload asks,
// restarts the engine.
func setup(o runOpts, dir string, inst *instruments) (*env, error) {
	t0 := time.Now()
	wld := o.w.world()
	prewarm, src := o.w.plan(wld, o.seed, o.clients)
	cfg := stackConfig{
		fleet:     wld.f,
		epsilon:   wld.epsilon,
		rho:       wld.rho,
		seed:      o.seed,
		stateDir:  filepath.Join(dir, "state"),
		diskDir:   filepath.Join(dir, "disk"),
		ramBytes:  o.w.ramBytes,
		diskBytes: o.w.diskBytes,
		inst:      inst,
	}
	st, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{w: wld, st: st, c: newClient(st), src: src, ack: newAcked()}
	e.boot = time.Since(t0)

	t0 = time.Now()
	for _, j := range prewarm {
		s := e.c.runJob(wld, "prewarm", j, false)
		e.record(s)
	}
	e.prewarm = time.Since(t0)

	if o.w.restart {
		t0 = time.Now()
		e.c.close()
		e.runsBeforeRestart = st.sandboxRuns()
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("restart: close: %w", err)
		}
		if e.st, err = boot(cfg); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		e.c = newClient(e.st)
		e.restart = time.Since(t0)
	}
	return e, nil
}

// tiers describes the chunk-cache tiers' contents.
func (e *env) tiers() string {
	cs := e.st.engine.CacheStats()
	return fmt.Sprintf("tiers: RAM %d B of %d B (%d entries), disk %d B of %d B, %d evictions",
		cs.Bytes, cs.MaxBytes, cs.Entries, cs.DiskBytes, cs.DiskMaxBytes, cs.Evictions)
}

func (e *env) record(s sample) {
	if s.failure != "" {
		e.failures = append(e.failures, fmt.Sprintf("job %s (%s): %s", s.id, s.analyst, s.failure))
	}
	e.ack.add(e.w, s)
}

// slices is how many equal slices the timed window is cut into. The
// run reports the median over slices of throughput, CPU per job,
// median latency and peak heap, so a burst of outside load on the
// machine that spans less than half the window does not move them.
const slices = 10

// windowResult is one timed stretch of closed-loop load.
type windowResult struct {
	start    time.Time
	slice    time.Duration
	samples  []sample
	elapsed  time.Duration
	sliceCPU []time.Duration // process CPU time at each slice boundary
	heap     []heapPoint     // the heap in use after each collection
	mem0     runtime.MemStats
	mem1     runtime.MemStats
}

// sliceStats returns, for each slice of the window, its throughput,
// CPU per job and median client latency (ms).
func (r *windowResult) sliceStats() (qps, cpuPerJob, p50 []float64) {
	lats := make([][]float64, slices)
	first := make([]time.Time, slices)
	last := make([]time.Time, slices)
	for _, s := range r.samples {
		k := int(s.end.Sub(r.start) / r.slice)
		if k < 0 || k >= slices {
			continue
		}
		lats[k] = append(lats[k], ms(s.lat))
		if first[k].IsZero() || s.end.Before(first[k]) {
			first[k] = s.end
		}
		if s.end.After(last[k]) {
			last[k] = s.end
		}
	}
	for k := 0; k+1 < len(r.sliceCPU) && k < slices; k++ {
		n := float64(len(lats[k]))
		if n < 2 {
			continue
		}
		// Completions per second between the slice's first and last
		// completion, which unlike a count per slice is not quantized.
		qps = append(qps, (n-1)/last[k].Sub(first[k]).Seconds())
		cpuPerJob = append(cpuPerJob, ms(r.sliceCPU[k+1]-r.sliceCPU[k])/n)
		p50 = append(p50, median(lats[k]))
	}
	return qps, cpuPerJob, p50
}

// slicePeaks returns, for each slice of the window in which a
// collection ended, the largest live heap such a collection left. The
// run reports their median: a peak that recurs, not the one largest
// collection of the window, whose size depends on whether it happened
// to end while a WAL snapshot buffer or both jobs' working sets were
// live.
func (r *windowResult) slicePeaks() []float64 {
	peak := make([]float64, slices)
	for _, h := range r.heap {
		if k := int(h.at.Sub(r.start) / r.slice); k >= 0 && k < slices {
			peak[k] = max(peak[k], h.mib)
		}
	}
	var seen []float64
	for _, p := range peak {
		if p > 0 {
			seen = append(seen, p)
		}
	}
	return seen
}

// drive runs o.clients closed-loop analysts against e for d: each
// submits a job, polls it to a terminal state, checks it, and only then
// submits its next one.
func (e *env) drive(clients int, d time.Duration, fetchTrace bool) *windowResult {
	r := &windowResult{slice: d / slices}
	runtime.ReadMemStats(&r.mem0)
	stop := make(chan struct{})
	cpu0 := cpuTime()
	t0 := time.Now()
	sampler := startHeapSampler()
	r.start = t0
	r.sliceCPU = []time.Duration{cpu0}
	deadline := t0.Add(d)
	timer := time.AfterFunc(d, func() { close(stop) })
	ticks := make(chan []time.Duration, 1)
	go func() {
		marks := []time.Duration{cpu0}
		for k := 1; k <= slices; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * r.slice)))
			marks = append(marks, cpuTime())
		}
		ticks <- marks
	}()
	var wg sync.WaitGroup
	per := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			analyst := fmt.Sprintf("analyst%d", c)
			for time.Now().Before(deadline) {
				j := e.src.next(c, stop)
				if j == nil {
					return
				}
				per[c] = append(per[c], e.c.runJob(e.w, analyst, j, fetchTrace))
			}
		}(c)
	}
	wg.Wait()
	timer.Stop()
	r.elapsed = time.Since(t0)
	r.sliceCPU = <-ticks
	r.heap = sampler.stop()
	runtime.ReadMemStats(&r.mem1)
	for _, ss := range per {
		for _, s := range ss {
			e.record(s)
			r.samples = append(r.samples, s)
		}
	}
	return r
}

// finalChecks runs the post-run ledger and audit identities.
func (e *env) finalChecks() {
	e.failures = append(e.failures, e.ack.checkLedger(e.w, e.c)...)
	e.failures = append(e.failures, e.ack.checkAudit(e.c)...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the Go heap in use after every garbage
// collection that ends during the window: the bytes the collection
// marked live. Unlike the heap's instantaneous size, that does not
// depend on where in its cycle the collector was sampled.
type heapSampler struct {
	done chan struct{}
	live chan []heapPoint
}

// heapPoint is one collection's live heap, in MiB, and when the
// sampler saw it.
type heapPoint struct {
	at  time.Time
	mib float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), live: make(chan []heapPoint, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		var live []heapPoint
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				if len(live) == 0 {
					live = append(live, heapPoint{time.Now(), float64(s[1].Value.Uint64()) / (1 << 20)})
				}
				h.live <- live
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				live = append(live, heapPoint{time.Now(), float64(s[1].Value.Uint64()) / (1 << 20)})
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() []heapPoint {
	close(h.done)
	return <-h.live
}

// parseCost times query.Parse over the texts of the window's jobs.
func parseCost(samples []sample) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, s := range samples {
		if _, err := query.Parse(s.j.text); err != nil {
			return 0
		}
	}
	return time.Since(t0) / time.Duration(len(samples))
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// workDir returns a fresh scratch directory inside the checkout's
// build directory.
func workDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
