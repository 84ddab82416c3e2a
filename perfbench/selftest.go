package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"privid/internal/video"
)

// seedJobs is how many jobs per client the seed self-test compares.
const seedJobs = 2000

// planBytes renders a workload's generated input for seed: the prewarm
// jobs, then each client's first seedJobs jobs with their expected
// outcomes.
func planBytes(w *workload, seed int64, clients int) string {
	wld := w.world()
	prewarm, src := w.plan(wld, seed, clients)
	var b strings.Builder
	for _, j := range prewarm {
		j.encode(&b)
	}
	stop := make(chan struct{})
	close(stop)
	for c := 0; c < clients; c++ {
		fmt.Fprintf(&b, "client %d\n", c)
		for i := 0; i < seedJobs; i++ {
			j := src.next(c, stop)
			if j == nil {
				break
			}
			j.encode(&b)
		}
	}
	return b.String()
}

// seedSelfTest checks that one seed yields byte-identical query lists
// and expected outcomes.
func seedSelfTest(w *workload, seed int64, clients int) []string {
	if planBytes(w, seed, clients) != planBytes(w, seed, clients) {
		return []string{fmt.Sprintf("selftest: seed %d generated two different plans", seed)}
	}
	return nil
}

// fidelityJobs is how many jobs the wrapper fidelity self-test runs
// after the workload's setup.
const fidelityJobs = 6

// workCounts are the engine's counts of work done, which the
// instruments must not change.
type workCounts struct {
	sandboxRuns                          float64
	hits, misses, puts                   uint64
	stateHits, stateMisses, statePuts    uint64
	plans, declined, folds, merges, memo uint64
}

func countWork(st *stack) workCounts {
	cs, ps := st.engine.CacheStats(), st.engine.PartialStats()
	return workCounts{
		sandboxRuns: st.sandboxRuns(),
		hits:        cs.Hits, misses: cs.Misses, puts: cs.Puts,
		stateHits: cs.StateHits, stateMisses: cs.StateMisses, statePuts: cs.StatePuts,
		plans: ps.Plans, declined: ps.Declined, folds: ps.Folds, merges: ps.Merges, memo: ps.CachedChunks,
	}
}

// fidelitySelfTest runs the workload's setup and its first jobs
// serially on two fresh stacks, one plain and one with every
// instrument installed, and checks that the engine did the same work
// on both: the instruments may time the program but not change it.
// It also checks that the executable wrapper saw every sandbox
// execution and that the source wrapper keeps video.SparseSource
// visible.
func fidelitySelfTest(o runOpts) []string {
	o.clients = 1
	var counts [2]workCounts
	var execs int64
	var runs float64
	for i, traced := range []bool{false, true} {
		var inst *instruments
		if traced {
			inst = &instruments{}
		}
		dir := filepath.Join(o.dir, fmt.Sprintf("fidelity-%d", i))
		e, err := setup(o, dir, inst)
		if err != nil {
			return []string{fmt.Sprintf("selftest: fidelity setup: %v", err)}
		}
		stop := make(chan struct{})
		close(stop)
		for k := 0; k < fidelityJobs; k++ {
			j := e.src.next(0, stop)
			if j == nil {
				break
			}
			e.record(e.c.runJob(e.w, "fidelity", j, false))
		}
		counts[i] = countWork(e.st)
		bad := e.failures
		if inst != nil {
			execs = inst.execs.Load()
			runs = e.runsBeforeRestart + counts[i].sandboxRuns
			for _, cam := range e.w.f.Cams {
				_, sparse := video.Source(cam.Source).(video.SparseSource)
				_, wrapped := wrapSource(cam.Source, inst).(video.SparseSource)
				if sparse != wrapped {
					bad = append(bad, fmt.Sprintf("selftest: source wrapper changes SparseSource on %s", cam.Name))
				}
			}
		}
		if err := e.close(); err != nil {
			bad = append(bad, err.Error())
		}
		os.RemoveAll(dir)
		if len(bad) > 0 {
			return bad
		}
	}
	var bad []string
	if counts[0] != counts[1] {
		bad = append(bad, fmt.Sprintf("selftest: instruments changed the work: plain %+v, traced %+v", counts[0], counts[1]))
	}
	if float64(execs) != runs {
		bad = append(bad, fmt.Sprintf("selftest: executable wrapper saw %d executions, engine ran %v", execs, runs))
	}
	return bad
}
