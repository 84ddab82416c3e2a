package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"privid/internal/core"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/sandbox"
	"privid/internal/server"
	"privid/internal/sim"
	"privid/internal/store"
)

// execName is the executable every benchmark query runs: the fleet's
// ground-truth executable (one row per distinct object in the chunk).
const execName = "simobj"

// stackConfig describes one serving stack: the same engine, scheduler
// and HTTP API a privid-server process runs, booted in-process the way
// internal/harness boots it.
type stackConfig struct {
	fleet     *sim.Fleet
	epsilon   float64
	rho       time.Duration
	seed      int64
	stateDir  string
	diskDir   string // the disk chunk-cache tier
	ramBytes  int64  // 0 = engine default
	diskBytes int64  // 0 = engine default
	// inst, when non-nil, installs the benchmark's instruments around
	// the program's public seams. Nil boots the program untouched.
	inst *instruments
}

type stack struct {
	engine *core.Engine
	sched  *server.Scheduler
	srv    *httptest.Server
	reg    *obs.Registry
}

func boot(cfg stackConfig) (*stack, error) {
	reg := obs.NewRegistry()
	opts := core.Options{
		Seed: cfg.seed,
		// Evaluation mode serves each release's pre-noise value, which
		// the correctness check compares exactly against the fleet's
		// closed-form ground truth.
		Evaluation:      true,
		StateDir:        cfg.stateDir,
		DiskCacheDir:    cfg.diskDir,
		ChunkCacheBytes: cfg.ramBytes,
		DiskCacheBytes:  cfg.diskBytes,
		Metrics:         reg,
	}
	if cfg.inst != nil {
		opts.WrapWALFile = func(f store.File) store.File { return &timedFile{File: f, in: cfg.inst} }
	}
	engine, err := core.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	for _, cam := range cfg.fleet.Cams {
		src := cam.Source
		cc := core.CameraConfig{
			Name:    cam.Name,
			Source:  src,
			Policy:  policy.Policy{Rho: cfg.rho, K: 1},
			Epsilon: cfg.epsilon,
		}
		if cfg.inst != nil {
			cc.Source = wrapSource(src, cfg.inst)
		}
		if err := engine.RegisterCamera(cc); err != nil {
			engine.Close()
			return nil, fmt.Errorf("register camera %s: %w", cam.Name, err)
		}
	}
	var fn sandbox.ProcessFunc = sim.ObjExecutable()
	if cfg.inst != nil {
		fn = wrapExec(fn, cfg.inst)
	}
	if err := engine.Registry().Register(execName, fn); err != nil {
		engine.Close()
		return nil, fmt.Errorf("register executable: %w", err)
	}
	// One scheduler worker per analyst, so both analysts' jobs run at
	// once (and cold_ingest's shared windows meet in singleflight) even
	// though the process has one P.
	sched := server.NewScheduler(engine, server.SchedulerOptions{Workers: clients})
	var h http.Handler = server.NewAPI(engine, sched)
	if cfg.inst != nil {
		h = &timedHandler{next: h, in: cfg.inst}
	}
	return &stack{engine: engine, sched: sched, srv: httptest.NewServer(h), reg: reg}, nil
}

// close shuts the stack down in privid-server's order: HTTP, then the
// scheduler (draining jobs), then the engine (final snapshot).
func (s *stack) close() error {
	s.srv.Close()
	s.sched.Close()
	return s.engine.Close()
}

// sandboxRuns is the engine's own count of sandbox executions, read
// from its metrics registry.
func (s *stack) sandboxRuns() float64 {
	v := s.reg.CounterVec("privid_sandbox_runs_total", "", "result")
	return v.With("clean").Value() + v.With("fallback").Value()
}
