// Command privid-sim runs the deterministic fleet simulator against a
// real engine+scheduler+HTTP stack and checks the four soak
// invariants (ledger identity, ground-truth accuracy, stats
// consistency, job durability). It is the operational twin of
// `go test ./internal/sim -run TestSoak`: same scenario code, same
// invariant checker, but sized and faulted from flags, so an operator
// can reproduce a CI failure seed or soak a build interactively.
//
// Usage:
//
//	privid-sim -seed 7                       # one clean run
//	privid-sim -seed 7 -chaos                # with restarts/crashes/torn WAL
//	privid-sim -cameras 1000 -minutes 5 -chaos   # nightly-scale soak
//
// Exit status: 0 when every invariant holds, 1 on violations or any
// other reported error, 2 on a fatal setup error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"privid/internal/sim"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "deterministic seed (fleet, workload and chaos schedule)")
		cameras  = flag.Int("cameras", 24, "fleet size")
		minutes  = flag.Int("minutes", 3, "minutes of synthetic video per camera")
		analysts = flag.Int("analysts", 5, "concurrent analysts")
		ops      = flag.Int("ops", 4, "planned queries per analyst")
		standing = flag.Int("standing", 2, "standing queries advanced concurrently")
		chaos    = flag.Bool("chaos", false, "enable the chaos layer (restart, crash, torn WAL, hung executable, cache thrash)")
		stateDir = flag.String("state", "", "WAL directory (default: a temp dir, removed on exit)")
		cacheDir = flag.String("cache", "", "disk-cache directory (default: a temp dir, removed on exit)")
		quiet    = flag.Bool("q", false, "suppress per-violation logs; print only the report")
	)
	flag.Parse()

	sc := sim.Scenario{
		Fleet:    sim.FleetConfig{Cameras: *cameras, Seed: *seed, Minutes: *minutes},
		Workload: sim.WorkloadConfig{Analysts: *analysts, OpsPerAnalyst: *ops, StandingQueries: *standing},
	}
	if *chaos {
		sc.Chaos = sim.ChaosConfig{Restarts: 1, Crashes: 1, TornWAL: true, HungExec: true, CacheThrash: true}
	}
	for _, d := range []struct {
		flag *string
		dst  *string
		name string
	}{{stateDir, &sc.StateDir, "privid-sim-state-*"}, {cacheDir, &sc.DiskCacheDir, "privid-sim-cache-*"}} {
		if *d.flag != "" {
			*d.dst = *d.flag
			continue
		}
		tmp, err := os.MkdirTemp("", d.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "privid-sim: %v\n", err)
			os.Exit(2)
		}
		defer os.RemoveAll(tmp)
		*d.dst = tmp
	}

	tb := &sim.RuntimeTB{Log: log.Printf}
	if *quiet {
		tb.Log = nil
	}
	rep, fatal := runScenario(tb, sc)
	tb.RunCleanups()
	if fatal != nil {
		fmt.Fprintf(os.Stderr, "privid-sim: fatal: %v\n", fatal)
		os.Exit(2)
	}

	fmt.Printf("seed %d: %d cameras, %d events, %d planned ops (done %d, failed %d, denied %d, lost %d), "+
		"%d standing releases, %d restarts, %d crashes\n",
		rep.Seed, rep.Cameras, rep.Events, rep.Ops, rep.Done, rep.Failed, rep.Denied,
		rep.Lost, rep.StandingReleases, rep.Restarts, rep.Crashes)
	if len(rep.Violations) > 0 {
		fmt.Printf("FAIL: %d invariant violations (reproduce: privid-sim -seed %d%s)\n",
			len(rep.Violations), rep.Seed, chaosSuffix(*chaos))
		for _, v := range rep.Violations {
			fmt.Printf("  - %s\n", v)
		}
		os.Exit(1)
	}
	if tb.Failed() {
		// An error outside the invariant checks, e.g. the engine failing
		// to close cleanly during cleanup; the log (off under -q) holds
		// the message.
		fmt.Printf("FAIL: the run logged an error (reproduce: privid-sim -seed %d%s)\n",
			rep.Seed, chaosSuffix(*chaos))
		os.Exit(1)
	}
	fmt.Println("OK: all invariants hold")
}

// runScenario isolates the panic-on-Fatalf contract of RuntimeTB so
// cleanups still run and the process exits with a status, not a stack
// trace.
func runScenario(tb *sim.RuntimeTB, sc sim.Scenario) (rep *sim.Report, fatal error) {
	defer func() {
		if r := recover(); r != nil {
			if fe, ok := r.(sim.FatalError); ok {
				fatal = fe
				return
			}
			panic(r)
		}
	}()
	return sim.Run(tb, sc), nil
}

func chaosSuffix(chaos bool) string {
	if chaos {
		return " -chaos"
	}
	return ""
}
