package main

import (
	"math/rand"
	"sync"
	"time"

	"privid/internal/sim"
)

// workload is one named traffic mix: the fleet it runs on, the
// operator settings of its stack, what setup does before timing
// starts, and the generator of every client's queries.
type workload struct {
	name string
	// world generates the fleet and its trusted metadata.
	world func() *world
	// ramBytes/diskBytes bound the RAM and disk chunk-cache tiers
	// (0 = engine defaults).
	ramBytes  int64
	diskBytes int64
	// restart closes and reopens the engine after prewarm, so the
	// timed window starts with a cold RAM tier.
	restart bool
	// plan derives the prewarm jobs (run serially during setup) and
	// the clients' job source. Both are pure functions of the seed.
	plan func(w *world, seed int64, clients int) ([]*job, jobSource)
}

const (
	// fleetSeed generates every workload's fleet. The fleet is fixed so
	// that runs with different seeds do the same amount of work; the
	// run's seed drives the query plan and the engine's noise.
	fleetSeed = 1
	// rho is every camera's policy duration (K = 1).
	rho = 25 * time.Second
	// bigEps is every camera's budget: large enough that no query
	// the plan means to admit is denied.
	bigEps = 1 << 20
	// clients is the number of closed-loop analysts, and of scheduler
	// workers.
	clients = 2
)

var workloads = map[string]*workload{
	"cold_ingest": {
		name: "cold_ingest",
		world: func() *world {
			return newWorld(sim.FleetConfig{Cameras: coldCameras, Seed: fleetSeed, Minutes: coldMinutes, FPS: 10}, rho, bigEps, coldChunkSec)
		},
		ramBytes:  coldRAMBytes,
		diskBytes: coldDiskBytes,
		plan:      planCold,
	},
	"disk_revisit": {
		name: "disk_revisit",
		world: func() *world {
			return newWorld(sim.FleetConfig{Cameras: 16, Seed: fleetSeed, Minutes: 240}, rho, bigEps, 5)
		},
		ramBytes: revisitRAMBytes,
		restart:  true,
		plan:     planRevisit,
	},
}

// clientRNG derives client c's generator from the workload seed.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c)*104729 + 17))
}

// perClient is a job source whose clients each follow their own
// seeded sequence.
type perClient struct{ gens []func() *job }

func (p *perClient) next(c int, _ <-chan struct{}) *job { return p.gens[c]() }

// ---- cold_ingest ----------------------------------------------------

const (
	coldCameras    = 64
	coldMinutes    = 6000 // 100 h per camera at 10 fps
	coldChunkSec   = 2
	coldGroup      = 4   // cameras per query
	coldWindowMin  = 10  // minutes per query: 1,200 chunks
	coldSharedFrac = 0.2 // windows requested by both clients at once
	// The tier bounds are operator settings, lowered so that old
	// entries are dropped and the heap stays small: cold_ingest never
	// revisits what it wrote.
	coldRAMBytes  = 16 << 20
	coldDiskBytes = 32 << 20
)

// planCold: windows advance through a long 10 fps stream, one 4-camera
// group after another, so no query touches video an earlier one did.
// A seeded share of windows goes to both clients at once
// (singleflight). Nothing is prewarmed. The stream holds 9,600
// windows; when they run out the timed window ends early.
func planCold(w *world, seed int64, clients int) ([]*job, jobSource) {
	groups := len(w.f.Cams) / coldGroup
	d := &dispenser{clients: clients, rng: rand.New(rand.NewSource(seed ^ 0xC01D)), gen: func(i int) *job {
		g, slot := i%groups, i/groups
		b := slot * coldWindowMin
		if b+coldWindowMin > w.f.Cfg.Minutes {
			return nil
		}
		cams := make([]int, coldGroup)
		for k := range cams {
			cams[k] = g*coldGroup + k
		}
		return w.newJob(window{cams: cams, beginMin: b, endMin: b + coldWindowMin, chunkSec: coldChunkSec}, selCount, 1, false)
	}}
	return nil, d
}

// dispenser hands out one global job sequence. A shared job is handed
// to two clients, which submit it together: the first waits until the
// second has taken it too, or until the timed window ends.
type dispenser struct {
	clients int
	rng     *rand.Rand
	gen     func(i int) *job

	mu      sync.Mutex
	i       int
	pending *job          // shared job taken once so far
	ready   chan struct{} // closed when pending is taken the second time
}

func (d *dispenser) next(_ int, stop <-chan struct{}) *job {
	d.mu.Lock()
	if d.pending != nil {
		j := d.pending
		d.pending = nil
		close(d.ready)
		d.mu.Unlock()
		return j
	}
	j := d.gen(d.i)
	d.i++
	if j == nil {
		d.mu.Unlock()
		return nil
	}
	j.shared = d.clients > 1 && d.rng.Float64() < coldSharedFrac
	if !j.shared {
		d.mu.Unlock()
		return j
	}
	d.pending = j
	ready := make(chan struct{})
	d.ready = ready
	d.mu.Unlock()
	select {
	case <-ready:
	case <-stop:
	}
	return j
}

// ---- disk_revisit ---------------------------------------------------

const (
	revisitGroup     = 4       // cameras per query
	revisitWindowMin = 60      // minutes per query
	revisitRAMBytes  = 1 << 20 // RAM tier bound (operator setting)
	// revisitDenyFrac is the planned share of queries that ask for more
	// budget than their window has left.
	revisitDenyFrac = 1.0 / 16
	// overAsk is how much more than the window's remaining ε a planned
	// denial asks for: a power of two, so the amount is exact.
	overAsk = 1.0 / 1024
)

// planRevisit: the working set is every (4-camera group, 60-minute
// window) of a 16-camera × 240-minute fleet in 5 s chunks — 16
// windows of 2,880 chunks — queried with COUNT (partial-state tier) and
// AVG (table tier). Prewarm fills both tiers with all of it; setup
// then restarts the engine, so the RAM tier starts cold and is several
// times smaller than the working set, while the disk tier holds all of
// it. Clients revisit windows in seeded random order.
//
// A seeded share of queries ask for ε − c + 1/1024, where c is the ε
// the prewarm and this client's own admitted queries have charged the
// window. Charges only accumulate, so the window has at most ε − c
// left whatever the other client did, and each such query must be
// denied: the denials are known from the plan alone.
func planRevisit(w *world, seed int64, clients int) ([]*job, jobSource) {
	var tmpl [][2]*job
	var prewarm []*job
	for g := 0; g+revisitGroup <= len(w.f.Cams); g += revisitGroup {
		cams := make([]int, revisitGroup)
		for k := range cams {
			cams[k] = g + k
		}
		for b := 0; b+revisitWindowMin <= w.f.Cfg.Minutes; b += revisitWindowMin {
			win := window{cams: cams, beginMin: b, endMin: b + revisitWindowMin, chunkSec: 5}
			pair := [2]*job{w.newJob(win, selCount, 1, false), w.newJob(win, selAvg, 1, false)}
			prewarm = append(prewarm, pair[0], pair[1])
			tmpl = append(tmpl, pair)
		}
	}
	src := &perClient{}
	for c := 0; c < clients; c++ {
		rng := clientRNG(seed, c)
		charged := make([]float64, len(tmpl))
		for i := range charged {
			charged[i] = 2 // the window's two prewarm queries
		}
		src.gens = append(src.gens, func() *job {
			i, k := rng.Intn(len(tmpl)), rng.Intn(2)
			t := tmpl[i][k]
			if rng.Float64() < revisitDenyFrac {
				return w.newJob(t.win, t.kind, w.epsilon-charged[i]+overAsk, true)
			}
			charged[i] += t.eps
			return t
		})
	}
	return prewarm, src
}
