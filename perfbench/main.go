// Command perfbench is privid's end-to-end serving benchmark. It boots
// the real engine, scheduler and HTTP API in-process on a seeded
// internal/sim fleet, drives it with closed-loop analyst clients that
// submit a query, poll it to a terminal state and only then submit the
// next, and checks every outcome against the fleet's closed-form
// ground truth and the workload's plan.
//
//	go build -o perfbench . && ./perfbench --workload disk_revisit --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 installs the
// benchmark's instruments around the program's public seams, fetches
// every job's persisted span tree and prints the per-layer metrics.
// The last line of standard output is one JSON object; the exit code
// is non-zero when any check fails. See NOTES.md for the workloads,
// their sizes and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// tiers describes the chunk-cache tiers when timing started.
	tiers string
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// procs is the benchmark process's GOMAXPROCS; the engine sizes its
// per-query parallelism from it. One P leaves the machine's other
// cores to the kernel and to other processes, so their load competes
// less with the timed work. On a shared 2-vCPU VM, a CPU-bound process
// running beside the benchmark cut its throughput by about 20% with
// two Ps and did not measurably change it with one (see NOTES.md).
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed window length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	var all []string
	for n := range workloads {
		all = append(all, n)
	}
	sort.Strings(all)
	names := all
	if *name != "all" {
		names = []string{*name}
	}
	if _, ok := workloads[names[0]]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s|all --seed N --seconds S --trace 0|1\n", strings.Join(all, "|"))
		return 2
	}
	code := 0
	for _, n := range names {
		if c := runWorkload(workloads[n], *seed, *seconds, *trace == 1); c != 0 {
			code = c
		}
	}
	return code
}

// runWorkload runs one workload, prints its metrics and, as the last
// line, the JSON result, and returns the exit code.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) int {
	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := runOpts{w: w, seed: seed, seconds: seconds, traced: traced, dir: dir,
		clients: clients}

	var rep *report
	var failures []string
	if o.traced {
		rep, failures, err = runTraced(o)
	} else {
		rep, failures, err = runUntraced(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	rep.Failed = len(failures)
	rep.Correct = rep.Failed == 0
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d clients %d trace %t\n  %s\n", w.name, o.seed, o.clients, traced, rep.tiers)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if !traced {
		fmt.Printf("  %-36s %14.4f %s\n", "failed_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runUntraced sets the stack up setupReps times, times the last setup's
// window with no instruments installed, and reports the end-to-end
// metrics.
func runUntraced(o runOpts) (*report, []string, error) {
	failures := seedSelfTest(o.w, o.seed, o.clients)
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(o.dir, fmt.Sprint(i))
		var err error
		if e, err = setup(o, dir, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, e.setupTime().Seconds())
		if i < setupReps-1 {
			failures = append(failures, e.failures...)
			if err := e.close(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(dir)
		}
	}
	tiers := e.tiers()
	runtime.GC()
	r := e.drive(o.clients, time.Duration(o.seconds*float64(time.Second)), false)
	e.finalChecks()
	failures = append(failures, e.failures...)
	if err := e.close(); err != nil {
		failures = append(failures, fmt.Sprintf("close: %v", err))
	}

	n := len(r.samples)
	lats := make([]float64, n)
	for i, s := range r.samples {
		lats[i] = ms(s.lat)
	}
	qps, cpuPerJob, p50 := r.sliceStats()
	rep := &report{Attempted: n, Metrics: map[string]metric{}, tiers: tiers}
	rep.set("setup_s", median(setups), "s")
	rep.set("job_p50_ms", median(p50), "ms")
	rep.set("job_p99_ms", percentile(lats, 0.99), "ms")
	rep.set("throughput_qps", median(qps), "jobs/s")
	rep.set("cpu_ms_per_job", median(cpuPerJob), "ms")
	rep.set("peak_heap_mb", median(r.slicePeaks()), "MiB")
	if n == 0 {
		failures = append(failures, "no job completed in the timed window")
	}
	return rep, failures, nil
}

// runTraced checks the instruments' fidelity, then times half the
// window on a plain stack (its throughput is the untraced baseline)
// and half on a fresh stack with the instruments installed and every
// job's span tree fetched. Both halves start from the same setup and
// run the same plan. It reports the per-layer metrics of the traced
// half and the plain stack's setup split.
func runTraced(o runOpts) (*report, []string, error) {
	failures := fidelitySelfTest(o)
	half := time.Duration(o.seconds * float64(time.Second) / 2)

	e, err := setup(o, filepath.Join(o.dir, "plain"), nil)
	if err != nil {
		return nil, nil, err
	}
	boot, prewarm, restart := e.boot, e.prewarm, e.restart
	runtime.GC()
	base := e.drive(o.clients, half, false)
	e.finalChecks()
	failures = append(failures, e.failures...)
	if err := e.close(); err != nil {
		failures = append(failures, fmt.Sprintf("close: %v", err))
	}

	inst := &instruments{}
	if e, err = setup(o, filepath.Join(o.dir, "traced"), inst); err != nil {
		return nil, nil, err
	}
	tiers := e.tiers()
	cs0, fs0, ps0 := e.st.engine.CacheStats(), e.st.engine.FlightStats(), e.st.engine.PartialStats()
	runs0 := e.st.sandboxRuns()
	den0, _, eps0, err := auditTotals(e.c)
	if err != nil {
		return nil, nil, err
	}
	lc0 := inst.snapshot()
	runtime.GC()
	r := e.drive(o.clients, half, true)
	lc1 := inst.snapshot()
	cs1, fs1, ps1 := e.st.engine.CacheStats(), e.st.engine.FlightStats(), e.st.engine.PartialStats()
	runs1 := e.st.sandboxRuns()
	den1, _, eps1, err := auditTotals(e.c)
	if err != nil {
		return nil, nil, err
	}
	e.finalChecks()
	failures = append(failures, e.failures...)
	if err := e.close(); err != nil {
		failures = append(failures, fmt.Sprintf("close: %v", err))
	}

	n := len(r.samples)
	nf := float64(max(n, 1))
	rep := &report{Attempted: len(base.samples) + n, Metrics: map[string]metric{}, tiers: tiers}
	if n == 0 {
		failures = append(failures, "no job completed in the traced window")
	}

	// server: client-observed HTTP costs and the job record's timestamps.
	var submit, poll, slack, queue, runAll, runPush, runMat []float64
	polls, refusals, failed, slow := 0, 0, 0, 0
	agg := newTraceAgg()
	for _, s := range r.samples {
		submit = append(submit, us(s.submitRTT))
		if s.polls > 0 {
			poll = append(poll, us(s.pollRTT)/float64(s.polls))
		}
		slack = append(slack, ms(s.lat-s.server))
		queue = append(queue, ms(s.queueWait))
		runAll = append(runAll, ms(s.run))
		if s.j.kind.pushdown() {
			runPush = append(runPush, ms(s.run))
		} else {
			runMat = append(runMat, ms(s.run))
		}
		if s.lat > slowJob {
			slow++
		}
		polls += s.polls
		refusals += s.refusals
		if s.failure != "" {
			failed++
		}
		if s.trace != nil {
			if err := agg.add(s.trace); err != nil {
				failures = append(failures, fmt.Sprintf("trace %s: %v", s.id, err))
			}
		} else if s.id != "" {
			failures = append(failures, fmt.Sprintf("trace %s: not served", s.id))
		}
	}
	for _, s := range base.samples {
		if s.failure != "" {
			failed++
		}
	}
	rep.set("failed_frac", float64(failed)/float64(max(rep.Attempted, 1)), "ratio")
	rep.set("server.submit_rtt_us", median(submit), "us")
	rep.set("server.poll_rtt_us", median(poll), "us")
	rep.set("server.handler_us.submit", perCall(lc1.submitNS-lc0.submitNS, lc1.submits-lc0.submits), "us")
	rep.set("server.handler_us.poll", perCall(lc1.pollNS-lc0.pollNS, lc1.polls-lc0.polls), "us")
	rep.set("server.polls_per_job", float64(polls)/nf, "count")
	rep.set("server.poll_slack_ms", median(slack), "ms")
	rep.set("server.queue_wait_ms.p50", percentile(queue, 0.5), "ms")
	rep.set("server.queue_wait_ms.p99", percentile(queue, 0.99), "ms")
	rep.set("server.run_ms", median(runAll), "ms")
	rep.set("server.run_ms.pushdown", median(runPush), "ms")
	rep.set("server.run_ms.materialized", median(runMat), "ms")
	rep.set("server.refusals_per_job", float64(refusals)/nf, "count")
	rep.set("server.jobs_over_100ms_frac", float64(slow)/nf, "ratio")
	rep.set("query.parse_us", us(parseCost(r.samples)), "us")

	// core: self time per pipeline span in the persisted traces.
	for _, name := range coreSpans {
		rep.set("core."+name+"_us", agg.perJobUS(name), "us")
	}
	rep.set("core.shard_us_max", us(agg.shardMax)/float64(max(agg.jobs, 1)), "us")
	rep.set("core.pushdown_folds_per_job", float64(ps1.Folds-ps0.Folds)/nf, "count")
	rep.set("core.pushdown_merges_per_job", float64(ps1.Merges-ps0.Merges)/nf, "count")
	rep.set("core.pushdown_cached_chunks_per_job", float64(ps1.CachedChunks-ps0.CachedChunks)/nf, "count")
	rep.set("core.pushdown_declined_per_job", float64(ps1.Declined-ps0.Declined)/nf, "count")

	// cache: tier counters.
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	diskHits := float64(cs1.DiskHits - cs0.DiskHits + cs1.DiskStateHits - cs0.DiskStateHits)
	diskLookups := diskHits + float64(cs1.DiskMisses-cs0.DiskMisses+cs1.DiskStateMisses-cs0.DiskStateMisses)
	ramHits := hits - float64(cs1.DiskHits-cs0.DiskHits)
	stateHits, stateMisses := float64(cs1.StateHits-cs0.StateHits), float64(cs1.StateMisses-cs0.StateMisses)
	rep.set("cache.ram_hit_rate", ramHits/(hits+misses), "ratio")
	rep.set("cache.state_hit_rate", stateHits/(stateHits+stateMisses), "ratio")
	rep.set("cache.ram_hits_per_job", ramHits/nf, "count")
	rep.set("cache.state_hits_per_job", stateHits/nf, "count")
	rep.set("cache.disk_hit_rate", diskHits/diskLookups, "ratio")
	rep.set("cache.promotions_per_job", float64(cs1.Promotions-cs0.Promotions)/nf, "count")
	rep.set("cache.evictions_per_job", float64(cs1.Evictions-cs0.Evictions)/nf, "count")
	rep.set("cache.puts_per_job", float64(cs1.Puts-cs0.Puts+cs1.StatePuts-cs0.StatePuts)/nf, "count")
	rep.set("cache.disk_puts_per_job", float64(cs1.DiskPuts-cs0.DiskPuts+cs1.DiskStatePuts-cs0.DiskStatePuts)/nf, "count")
	rep.set("cache.flight_followers_per_job", float64(fs1.Followers-fs0.Followers)/nf, "count")
	runs := runs1 - runs0
	rep.set("cache.flight_dedup_ratio", misses/runs, "ratio")

	// sandbox and video: the executable and source wrappers.
	execs := lc1.execs - lc0.execs
	if float64(execs) != runs {
		failures = append(failures, fmt.Sprintf("executable wrapper saw %d executions, engine ran %v", execs, runs))
	}
	inst.execMu.Lock()
	execSamples := inst.execSamples[lc0.execSamples:lc1.execSamples]
	inst.execMu.Unlock()
	rep.set("sandbox.execs_per_job", float64(execs)/nf, "count")
	rep.set("sandbox.exec_us", us(time.Duration(medianInt(execSamples))), "us")
	plumbing := 0.0
	if execs > 0 {
		plumbing = (us(agg.processIncl) - us(time.Duration(lc1.execNS-lc0.execNS))) / float64(execs)
	}
	rep.set("sandbox.plumbing_us_per_exec", plumbing, "us")
	rep.set("video.frames_per_job", float64(lc1.frames-lc0.frames)/nf, "count")
	rep.set("video.frame_us", perCall(lc1.frameNS-lc0.frameNS, lc1.frames-lc0.frames), "us")

	// store: the WAL file wrapper.
	fsyncs := lc1.fsyncs - lc0.fsyncs
	inst.fsyncMu.Lock()
	fsyncSamples := inst.fsyncSamples[lc0.fsyncSamples:lc1.fsyncSamples]
	inst.fsyncMu.Unlock()
	rep.set("store.fsyncs_per_job", float64(fsyncs)/nf, "count")
	rep.set("store.fsync_us", us(time.Duration(medianInt(fsyncSamples))), "us")
	rep.set("store.wal_bytes_per_job", float64(lc1.walBytes-lc0.walBytes)/nf, "bytes")
	rep.set("store.writes_per_fsync", float64(lc1.walWrites-lc0.walWrites)/float64(max(fsyncs, 1)), "count")

	// dp: audit-log deltas.
	rep.set("dp.denials_per_job", float64(den1-den0)/nf, "count")
	rep.set("dp.eps_charged_per_job", (eps1-eps0)/nf, "eps")

	// runtime: MemStats deltas over the traced window.
	rep.set("runtime.mallocs_per_job", float64(r.mem1.Mallocs-r.mem0.Mallocs)/nf, "count")
	rep.set("runtime.alloc_bytes_per_job", float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc)/nf, "bytes")
	rep.set("runtime.gc_cycles_per_job", float64(r.mem1.NumGC-r.mem0.NumGC)/nf, "count")

	// bench: the instrument's own cost and the setup split.
	baseQPS := float64(len(base.samples)) / base.elapsed.Seconds()
	rep.set("bench.trace_overhead_frac", 1-(float64(n)/r.elapsed.Seconds())/baseQPS, "ratio")
	rep.set("bench.setup.boot_s", boot.Seconds(), "s")
	rep.set("bench.setup.prewarm_s", prewarm.Seconds(), "s")
	rep.set("bench.setup.restart_s", restart.Seconds(), "s")
	return rep, failures, nil
}

// slowJob is the client latency past which a traced job counts in
// server.jobs_over_100ms_frac. A job that waits out a WAL compaction
// takes 150–200 ms, past every workload's p99 (at most about 75 ms).
const slowJob = 100 * time.Millisecond

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls) / 1e3
}

func medianInt(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
