// Package sandbox runs the analyst's untrusted per-chunk processing
// code under the isolation contract of Appendix B: each chunk is
// processed by an independent instantiation that can see only that
// chunk, must finish within a fixed TIMEOUT (else its output is the
// schema's default row), may emit at most max_rows rows, and has its
// output coerced into the declared schema.
//
// The paper runs Python executables in an isolated environment; this
// reproduction registers Go functions instead (documented in
// DESIGN.md). The privacy analysis depends only on the contract, which
// this harness enforces: no state survives across chunks through the
// API, over-production is truncated, panics and timeouts yield default
// rows, and execution cannot signal through anything but the rows.
package sandbox

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"privid/internal/table"
	"privid/internal/video"
)

// ProcessFunc is the analyst's per-chunk processing code. It must be a
// pure function of the chunk: implementations must not retain state
// between invocations (the harness runs each chunk on an independent
// instantiation and the engine may process chunks in any order or in
// parallel, so smuggled state is unreliable as well as forbidden).
type ProcessFunc func(chunk *video.Chunk) []table.Row

// Registry maps executable names (the USING clause) to ProcessFuncs.
// It is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]ProcessFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]ProcessFunc{}}
}

// Register binds a name to a processing function. Re-registering a
// name is an error: queries reference executables by name, and silent
// replacement would be a footgun.
func (r *Registry) Register(name string, fn ProcessFunc) error {
	if fn == nil {
		return fmt.Errorf("sandbox: nil ProcessFunc for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		return fmt.Errorf("sandbox: executable %q already registered", name)
	}
	r.m[name] = fn
	return nil
}

// Lookup resolves an executable name.
func (r *Registry) Lookup(name string) (ProcessFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	return fn, ok
}

// Names returns the registered executable names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Executor enforces the isolation contract around one ProcessFunc for
// one PROCESS statement.
type Executor struct {
	Fn      ProcessFunc
	Timeout time.Duration
	MaxRows int
	Schema  table.Schema
	// Done, if non-nil, is called exactly once per RunChecked when the
	// executable goroutine actually exits. On a timeout that is later
	// than RunChecked's own return — which is what lets callers bound
	// the true number of in-flight executions rather than the number of
	// un-returned RunChecked calls.
	Done func()
}

// RunChecked processes one chunk and returns schema-conforming rows. On
// timeout, panic, or crash the executor returns the single default row
// (Appendix D's TIMEOUT semantics). Output beyond MaxRows is dropped;
// every row is coerced to the schema. ok is false when the default row
// was substituted for a timeout, panic, or crash — outcomes that depend
// on machine load rather than on the chunk alone, which callers
// memoizing results (the engine's chunk cache) must not treat as the
// chunk's true output.
func (e *Executor) RunChecked(chunk *video.Chunk) (rows []table.Row, ok bool) {
	type result struct {
		rows []table.Row
		ok   bool
	}
	ch := make(chan result, 1)
	go func() {
		if e.Done != nil {
			defer e.Done()
		}
		defer func() {
			if recover() != nil {
				ch <- result{ok: false}
			}
		}()
		rows := e.Fn(chunk)
		ch <- result{rows: rows, ok: true}
	}()

	var res result
	if e.Timeout > 0 {
		timer := time.NewTimer(e.Timeout)
		defer timer.Stop()
		select {
		case res = <-ch:
		case <-timer.C:
			// Timed out: the goroutine may still be running; its
			// buffered channel send will be dropped on the floor.
			res = result{ok: false}
		}
	} else {
		res = <-ch
	}

	if !res.ok {
		return []table.Row{e.Schema.DefaultRow()}, false
	}
	raw := res.rows
	if e.MaxRows > 0 && len(raw) > e.MaxRows {
		raw = raw[:e.MaxRows]
	}
	out := make([]table.Row, len(raw))
	for i, r := range raw {
		out[i] = e.Schema.Conform(r)
	}
	return out, true
}
