package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/sandbox"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// instruments time the program from outside, at its public seams: the
// video.Source each camera is registered with, the registered
// executable, the WAL file handle (core.Options.WrapWALFile) and the
// http.Handler. They are installed only on the traced run's traced
// stack; the metrics are deltas of their counters over the window.
type instruments struct {
	frames, frameNS atomic.Int64

	execs, execNS atomic.Int64
	execMu        sync.Mutex
	execSamples   []int64

	walWrites, walBytes atomic.Int64
	fsyncs, fsyncNS     atomic.Int64
	fsyncMu             sync.Mutex
	fsyncSamples        []int64

	submits, submitNS atomic.Int64
	polls, pollNS     atomic.Int64
}

// layerCounts is a snapshot of the instruments' counters.
type layerCounts struct {
	frames, frameNS, execs, execNS   int64
	walWrites, walBytes, fsyncs      int64
	submits, submitNS, polls, pollNS int64
	execSamples, fsyncSamples        int
}

func (in *instruments) snapshot() layerCounts {
	in.execMu.Lock()
	ne := len(in.execSamples)
	in.execMu.Unlock()
	in.fsyncMu.Lock()
	nf := len(in.fsyncSamples)
	in.fsyncMu.Unlock()
	return layerCounts{
		frames: in.frames.Load(), frameNS: in.frameNS.Load(),
		execs: in.execs.Load(), execNS: in.execNS.Load(),
		walWrites: in.walWrites.Load(), walBytes: in.walBytes.Load(), fsyncs: in.fsyncs.Load(),
		submits: in.submits.Load(), submitNS: in.submitNS.Load(),
		polls: in.polls.Load(), pollNS: in.pollNS.Load(),
		execSamples: ne, fsyncSamples: nf,
	}
}

// timedSource wraps a camera's video source, timing every frame read.
type timedSource struct {
	video.Source
	in *instruments
}

func (s *timedSource) Frame(i int64) video.Frame {
	t := time.Now()
	f := s.Source.Frame(i)
	s.in.frameNS.Add(int64(time.Since(t)))
	s.in.frames.Add(1)
	return f
}

// timedSparseSource keeps video.SparseSource visible through the
// wrapper: the engine type-asserts it to skip provably empty chunks,
// so hiding it would change the work being measured.
type timedSparseSource struct {
	*timedSource
	sparse video.SparseSource
}

func (s *timedSparseSource) ActiveIntervals(iv vtime.Interval) []vtime.Interval {
	return s.sparse.ActiveIntervals(iv)
}

func wrapSource(src video.Source, in *instruments) video.Source {
	ts := &timedSource{Source: src, in: in}
	if ss, ok := src.(video.SparseSource); ok {
		return &timedSparseSource{timedSource: ts, sparse: ss}
	}
	return ts
}

// wrapExec times each execution of the registered executable.
func wrapExec(fn sandbox.ProcessFunc, in *instruments) sandbox.ProcessFunc {
	return func(c *video.Chunk) []table.Row {
		t := time.Now()
		rows := fn(c)
		d := int64(time.Since(t))
		in.execs.Add(1)
		in.execNS.Add(d)
		in.execMu.Lock()
		in.execSamples = append(in.execSamples, d)
		in.execMu.Unlock()
		return rows
	}
}

// timedFile wraps the WAL file handle, counting appends and timing
// fsyncs.
type timedFile struct {
	store.File
	in *instruments
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.in.walWrites.Add(1)
	f.in.walBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t))
	f.in.fsyncs.Add(1)
	f.in.fsyncNS.Add(d)
	f.in.fsyncMu.Lock()
	f.in.fsyncSamples = append(f.in.fsyncSamples, d)
	f.in.fsyncMu.Unlock()
	return err
}

// timedHandler times the API handler's submit and poll routes.
type timedHandler struct {
	next http.Handler
	in   *instruments
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := int64(time.Since(t))
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/queries":
		h.in.submits.Add(1)
		h.in.submitNS.Add(d)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/queries/") &&
		strings.Count(r.URL.Path, "/") == 3:
		h.in.polls.Add(1)
		h.in.pollNS.Add(d)
	}
}
