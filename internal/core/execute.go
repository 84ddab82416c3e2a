package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/cache"
	"privid/internal/dp"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/sandbox"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// ReleaseResult is one noised data release returned to the analyst.
type ReleaseResult struct {
	// Desc describes the aggregation, e.g. "COUNT(plate)[color=RED]".
	Desc string
	// Key is the group key for GROUP BY releases.
	Key    table.Value
	HasKey bool
	// Value is the released (noisy) number. For ARGMAX releases the
	// released value is ArgmaxKey instead.
	Value float64
	// ArgmaxKey is the winning key of an ARGMAX release.
	ArgmaxKey table.Value
	// RawArgmaxKey is the pre-noise winner; populated only in
	// Evaluation mode.
	RawArgmaxKey table.Value
	IsArgmax     bool
	// NoiseScale is the Laplace scale b = Δ/ε applied.
	NoiseScale float64
	// Epsilon is the budget the release consumed.
	Epsilon float64
	// Sensitivity is Δ(Q).
	Sensitivity float64
	// Raw is the pre-noise value; populated only in Evaluation mode.
	Raw float64
	// RawSet marks that Raw is meaningful.
	RawSet bool
	// Begin and End are the wall-clock span the release covers — the
	// query window for whole-table aggregates, the bucket span for
	// time-bucketed GROUP BY releases. Each touched camera is charged
	// over its queried span clipped to [Begin, End); external ledger
	// accounting (internal/sim's invariant checker) rebuilds the
	// per-frame charges from them.
	Begin, End time.Time
}

// CameraBudget reports one camera's share of a query's privacy cost:
// how much the query charged that camera's ledger and the worst-case
// budget left afterwards over the charged frames. It lets a fleet
// analyst see, per camera, how close each ledger is to exhaustion
// without a separate budget endpoint round-trip.
type CameraBudget struct {
	// Camera is the camera name.
	Camera string
	// EpsilonSpent is the total ε this query charged the camera (a
	// release spanning several cameras charges its ε on each, so the
	// per-camera values can sum to more than Result.EpsilonSpent).
	EpsilonSpent float64
	// Remaining is the minimum unspent budget over every frame this
	// query charged, measured after the charge landed.
	Remaining float64
}

// Result is the outcome of executing a program.
type Result struct {
	Releases []ReleaseResult
	// EpsilonSpent is the total budget the program consumed (sum over
	// releases).
	EpsilonSpent float64
	// Cameras reports the per-camera budget impact, sorted by camera
	// name (empty when the program released nothing chargeable).
	Cameras []CameraBudget
}

// slotGraceMultiple scales a PROCESS statement's TIMEOUT into the
// grace period after which a timed-out executable that still has not
// exited forfeits its Parallelism slot. Long enough that an executable
// merely overrunning keeps the engine-wide bound exact; short enough
// that a truly hung executable cannot wedge the engine.
const slotGraceMultiple = 4

// flightWaitMultiple scales the effective TIMEOUT into the longest a
// singleflight follower waits for its leader before giving up and
// executing on its own. A clean leader returns within one timeout;
// each handoff after a failed leader costs up to another. Four covers
// a leader plus a few handoffs, after which waiting longer is worse
// than paying the duplicate execution.
const flightWaitMultiple = 4

// splitShard is one camera's slice of a resolved chunk set: the
// concrete chunking plan for that camera (one video.Split per region;
// a single entry with empty region name when unsplit).
type splitShard struct {
	cam        *camera
	pol        policy.Policy // effective (mask-adjusted) policy
	maskID     string        // WITH MASK id ("" when unmasked)
	schemeName string        // BY REGION scheme name ("" when unsplit)
	interval   vtime.Interval
	chunkF     int64
	strideF    int64
	splits     []video.Split // one per region
	regions    int           // 0 when not region-split
	// regionsPerEvent is the max region-chunks one individual can
	// influence per temporal chunk (>1 only under Grid Split).
	regionsPerEvent int
}

// splitPlan is a resolved SPLIT or MERGE statement: one shard per
// contributing camera. multi marks chunk sets whose PROCESS rows carry
// the trusted camera provenance column (multi-camera SPLIT and every
// MERGE output).
type splitPlan struct {
	shards []*splitShard
	multi  bool
}

// Execute runs a parsed program end to end and returns its noised
// releases. On budget exhaustion the query is denied as a whole and
// nothing is consumed on any camera.
func (e *Engine) Execute(prog *query.Program) (*Result, error) {
	return e.execute(prog, "", nil, nil)
}

// ExecuteTagged runs prog like Execute, tagging its WAL charge records
// with tag — typically a hash of the query source — so the durable
// ledger ties every ε debit to the query that caused it. An empty tag
// falls back to a fingerprint of the charge set.
func (e *Engine) ExecuteTagged(prog *query.Program, tag string) (*Result, error) {
	return e.execute(prog, tag, nil, nil)
}

// ExecuteTraced runs prog like ExecuteTagged and additionally records
// a span tree of the execution: one span per pipeline stage, one child
// span per camera shard of each PROCESS (with cache hit/miss counts
// and sandbox time), and admission/commit outcomes. The trace is
// returned even when execution fails, so denials and errors are
// diagnosable. Trace attributes carry only identifiers, counts,
// durations and ε amounts — never released values or row contents.
func (e *Engine) ExecuteTraced(prog *query.Program, tag string) (*Result, *obs.Trace, error) {
	tr := obs.NewTrace("query", nil)
	res, err := e.execute(prog, tag, nil, tr.Root())
	if err != nil {
		tr.Root().Set("error", err.Error())
	}
	tr.Finish()
	return res, tr, err
}

// execute optionally filters which releases are emitted (and paid
// for); a nil filter keeps everything. Standing queries use the filter
// to release only newly completed buckets (Appendix D's streaming
// semantics). sp, when non-nil, receives one child span per pipeline
// stage.
func (e *Engine) execute(prog *query.Program, tag string, keep func(rel.Release) bool, sp *obs.Span) (*Result, error) {
	start := time.Now()
	res, err := e.executeStages(prog, tag, keep, sp)
	e.met.queryDone(res, err, time.Since(start))
	return res, err
}

// executeStages is the pipeline body of execute; see Execute for
// semantics and the admission comment below for crash-safety ordering.
func (e *Engine) executeStages(prog *query.Program, tag string, keep func(rel.Release) bool, sp *obs.Span) (*Result, error) {
	stageStart := time.Now()
	splitSp := sp.Child("split")
	defer splitSp.End()
	plans := map[string]*splitPlan{}
	for _, st := range prog.Splits {
		p, err := e.resolveSplit(st)
		if err != nil {
			return nil, err
		}
		plans[st.Into] = p
	}
	// MERGE unions previously resolved chunk sets; validation already
	// guaranteed the inputs exist, are distinct, and share a region
	// scheme. The merged set always stamps camera provenance, even
	// when the inputs happen to cover a single camera: its sensitivity
	// composes per shard either way.
	for _, m := range prog.Merges {
		merged := &splitPlan{multi: true}
		for _, in := range m.Inputs {
			p, ok := plans[in]
			if !ok {
				return nil, fmt.Errorf("core: MERGE input %q is not a defined chunk set", in)
			}
			merged.shards = append(merged.shards, p.shards...)
		}
		plans[m.Into] = merged
	}
	splitSp.Set("chunk_sets", len(plans))
	splitSp.End()
	e.met.stage("split", time.Since(stageStart))

	// Partial-aggregation pushdown: group the SELECTs by the one PROCESS
	// table they reference. A table qualifies when every SELECT touching
	// it touches nothing else (a JOIN or UNION partner forces the full
	// materialized path for all tables involved); whether each candidate
	// SELECT is actually mergeable is decided in runProcess, once the
	// stamped schema and shard metadata exist.
	pushCands := map[string][]*query.SelectStmt{}
	excluded := map[string]bool{}
	for _, sel := range prog.Selects {
		refs := rel.ReferencedTables(sel.From)
		if len(refs) == 1 {
			pushCands[refs[0]] = append(pushCands[refs[0]], sel)
			continue
		}
		for _, r := range refs {
			excluded[r] = true
		}
	}
	for name := range excluded {
		delete(pushCands, name)
	}

	stageStart = time.Now()
	env := rel.Env{}
	// pushedRels carries releases computed on the streaming-merge path,
	// keyed by statement; the SELECT stage below consumes them in place
	// of ExecuteSelect. A later PROCESS into the same table overwrites
	// both the env entry and its statements' releases, matching the
	// last-write-wins semantics the env always had.
	pushedRels := map[*query.SelectStmt][]rel.Release{}
	for _, st := range prog.Processes {
		procSp := sp.Child("process")
		procSp.Set("table", st.Into)
		inst, rels, err := e.runProcess(st, plans[st.Input], pushCands[st.Into], procSp)
		procSp.End()
		if err != nil {
			return nil, err
		}
		env[st.Into] = inst
		for sel, rs := range rels {
			pushedRels[sel] = rs
		}
	}
	e.met.stage("process", time.Since(stageStart))

	// Execute every SELECT to releases first, then admit the whole
	// program's budget atomically, then add noise.
	stageStart = time.Now()
	aggSp := sp.Child("aggregate")
	defer aggSp.End()
	type pending struct {
		rel rel.Release
	}
	var pendings []pending
	for _, st := range prog.Selects {
		rels, pushed := pushedRels[st]
		if !pushed {
			var err error
			rels, err = rel.ExecuteSelect(st, env)
			if err != nil {
				return nil, err
			}
		}
		epsDefault := e.opts.DefaultQueryEpsilon / float64(len(rels))
		for _, r := range rels {
			if st.Consuming > 0 {
				r.Epsilon = st.Consuming
			} else {
				r.Epsilon = epsDefault
			}
			if keep != nil && !keep(r) {
				continue
			}
			pendings = append(pendings, pending{rel: r})
		}
	}
	aggSp.Set("releases", len(pendings))
	aggSp.End()
	e.met.stage("aggregate", time.Since(stageStart))

	// Build per-camera charges. Each release charges every camera it
	// depends on, over that camera's own charge window (its queried
	// span clipped to the release's span) mapped through the camera's
	// own frame clock.
	charges := map[string][]dp.Charge{}
	for _, p := range pendings {
		for _, camName := range p.rel.Cameras {
			cam, err := e.lookupCamera(camName)
			if err != nil {
				return nil, err
			}
			w, ok := p.rel.CamWindows[camName]
			if !ok {
				w = [2]time.Time{p.rel.Begin, p.rel.End}
			}
			clock := cam.cfg.Source.Info().Clock()
			iv := vtime.NewInterval(clock.FrameAt(w[0]), clock.FrameAt(w[1]))
			charges[camName] = append(charges[camName], dp.Charge{Interval: iv, Eps: p.rel.Epsilon})
		}
	}
	camNames := make([]string, 0, len(charges))
	for camName := range charges {
		camNames = append(camNames, camName)
	}
	sort.Strings(camNames)

	// Admission (Algorithm 1 lines 1–5, atomic across cameras), in
	// three phases so the durable fsync happens outside the engine
	// lock and concurrent queries' charges share group commits:
	//
	//  1. Reserve: under the lock, dp.ReserveAll checks every touched
	//     camera's ledger and holds the charges as reservations (they
	//     block competing queries); if any single camera denies, every
	//     reservation is dropped and no camera is charged anything.
	//  2. Persist: outside the lock, append every charge plus the
	//     audit entry to the WAL and fsync. A failure releases the
	//     reservations exactly and denies the query — the analyst
	//     never sees a noised result whose charge is not on disk.
	//  3. Finalize: under the lock, move reservations into the spent
	//     ledgers, then noise and release.
	//
	// A crash between 2 and 3 leaves charges on disk for a result
	// nobody received: recovery over-charges (at-least-once), never
	// under-charges.
	stageStart = time.Now()
	admitSp := sp.Child("admit")
	defer admitSp.End()
	for _, camName := range camNames {
		var eps float64
		for _, c := range charges[camName] {
			eps += c.Eps
		}
		camSp := admitSp.Child("reserve")
		camSp.Set("camera", camName)
		camSp.Set("charges", len(charges[camName]))
		camSp.Set("epsilon", eps)
		camSp.End()
	}
	e.mu.Lock()
	demands := make([]dp.Demand, 0, len(camNames))
	for _, camName := range camNames {
		cam := e.cameras[camName]
		demands = append(demands, dp.Demand{
			Ledger:    cam.ledger,
			Charges:   charges[camName],
			RhoFrames: cam.cfg.Policy.RhoFrames(cam.cfg.Source.Info().FPS),
		})
	}
	resv, err := dp.ReserveAll(demands)
	if err != nil {
		denied := AuditEntry{At: e.clock(), Cameras: camNames, Denied: true, Reason: err.Error()}
		e.recordAudit(denied)
		e.mu.Unlock()
		e.persistDeniedAudit(denied)
		admitSp.Set("outcome", "denied")
		admitSp.Set("reason", err.Error())
		var exhausted *dp.ErrBudgetExhausted
		if errors.As(err, &exhausted) {
			admitSp.Set("denied_camera", exhausted.Camera)
		}
		return nil, err
	}
	// Stamp the audit time under the lock: Options.Now test clocks
	// need not be goroutine-safe, and every other clock() call site
	// holds e.mu.
	at := e.clock()
	e.mu.Unlock()
	admitSp.Set("outcome", "reserved")
	admitSp.End()
	e.met.stage("admit", time.Since(stageStart))

	if tag == "" {
		tag = chargeFingerprint(camNames, charges)
	}
	var totalEps float64
	for _, p := range pendings {
		totalEps += p.rel.Epsilon
	}
	recs := make([]store.Record, 0, len(pendings)+1)
	for _, camName := range camNames {
		for _, c := range charges[camName] {
			recs = append(recs, store.Record{Charge: &store.ChargeRecord{
				Camera: camName,
				Start:  c.Interval.Start,
				End:    c.Interval.End,
				Eps:    c.Eps,
				Query:  tag,
			}})
		}
	}
	recs = append(recs, store.Record{Audit: &store.AuditRecord{
		At:           at,
		Cameras:      camNames,
		Releases:     len(pendings),
		EpsilonSpent: totalEps,
	}})
	stageStart = time.Now()
	commitSp := sp.Child("wal_commit")
	commitSp.Set("records", len(recs))
	defer commitSp.End()
	if err := e.store.Commit(recs...); err != nil {
		e.mu.Lock()
		resv.Release()
		e.recordAudit(AuditEntry{
			Cameras: camNames, Denied: true,
			Reason: "charge not persisted: " + err.Error(),
		})
		e.mu.Unlock()
		commitSp.Set("outcome", "failed")
		return nil, fmt.Errorf("core: charge not persisted, result withheld: %w", err)
	}
	commitSp.End()
	e.met.stage("wal_commit", time.Since(stageStart))

	stageStart = time.Now()
	noiseSp := sp.Child("noise")
	defer noiseSp.End()
	e.mu.Lock()
	resv.Finalize()
	res := &Result{}
	for _, p := range pendings {
		res.Releases = append(res.Releases, e.noiseRelease(p.rel))
		res.EpsilonSpent += p.rel.Epsilon
	}
	for _, camName := range camNames {
		cam := e.cameras[camName]
		cb := CameraBudget{Camera: camName, Remaining: math.Inf(1)}
		for _, c := range charges[camName] {
			cb.EpsilonSpent += c.Eps
			if r := cam.ledger.RemainingOver(c.Interval); r < cb.Remaining {
				cb.Remaining = r
			}
		}
		res.Cameras = append(res.Cameras, cb)
	}
	e.recordAudit(AuditEntry{
		At:           at,
		Cameras:      camNames,
		Releases:     len(res.Releases),
		EpsilonSpent: res.EpsilonSpent,
	})
	e.mu.Unlock()
	noiseSp.Set("releases", len(res.Releases))
	noiseSp.Set("epsilon", res.EpsilonSpent)
	noiseSp.End()
	e.met.stage("noise", time.Since(stageStart))
	return res, nil
}

// persistDeniedAudit records a denial in the durable audit log,
// best-effort: the denial consumed no budget, so accountability —
// unlike charges — may tolerate a lost entry when the store itself is
// failing.
func (e *Engine) persistDeniedAudit(entry AuditEntry) {
	_ = e.store.Commit(store.Record{Audit: &store.AuditRecord{
		At:           entry.At,
		Cameras:      entry.Cameras,
		Denied:       true,
		Reason:       entry.Reason,
		EpsilonSpent: entry.EpsilonSpent,
	}})
}

// chargeFingerprint derives a stable tag for untagged executions from
// the charge set itself.
func chargeFingerprint(camNames []string, charges map[string][]dp.Charge) string {
	h := fnv.New64a()
	for _, camName := range camNames {
		fmt.Fprintf(h, "%s:", camName)
		for _, c := range charges[camName] {
			fmt.Fprintf(h, "[%d,%d)=%g;", c.Interval.Start, c.Interval.End, c.Eps)
		}
	}
	return fmt.Sprintf("auto-%016x", h.Sum64())
}

// noiseRelease applies the Laplace mechanism (or noisy-max for ARGMAX)
// to one release. Caller holds e.mu (the noise stream is shared).
func (e *Engine) noiseRelease(r rel.Release) ReleaseResult {
	out := ReleaseResult{
		Desc:        r.Desc,
		Key:         r.Key,
		HasKey:      r.HasKey,
		Epsilon:     r.Epsilon,
		Sensitivity: r.Sensitivity,
		NoiseScale:  dp.LaplaceScale(r.Sensitivity, r.Epsilon),
		Begin:       r.Begin,
		End:         r.End,
	}
	if len(r.Scores) > 0 {
		out.IsArgmax = true
		best := 0
		bestScore := 0.0
		for i, s := range r.Scores {
			noisy := s.Raw + e.noise.Laplace(out.NoiseScale)
			if i == 0 || noisy > bestScore {
				best = i
				bestScore = noisy
			}
		}
		out.ArgmaxKey = r.Scores[best].Key
		if e.opts.Evaluation {
			// Raw winner for accuracy studies.
			rawBest := 0
			for i, s := range r.Scores {
				if s.Raw > r.Scores[rawBest].Raw {
					rawBest = i
				}
			}
			out.RawArgmaxKey = r.Scores[rawBest].Key
			out.RawSet = true
		}
		return out
	}
	out.Value = r.Raw + e.noise.Laplace(out.NoiseScale)
	if e.opts.Evaluation {
		out.Raw = r.Raw
		out.RawSet = true
	}
	return out
}

// resolveSplit turns a SPLIT statement into one concrete chunking
// shard per listed camera.
func (e *Engine) resolveSplit(st *query.SplitStmt) (*splitPlan, error) {
	plan := &splitPlan{multi: len(st.Cameras) > 1}
	for _, camName := range st.Cameras {
		sh, err := e.resolveShard(st, camName)
		if err != nil {
			return nil, err
		}
		plan.shards = append(plan.shards, sh)
	}
	return plan, nil
}

// resolveShard resolves one camera of a SPLIT statement: window
// intersection, chunk/stride frame conversion at the camera's FPS,
// mask policy lookup, and region scheme resolution.
func (e *Engine) resolveShard(st *query.SplitStmt, camName string) (*splitShard, error) {
	cam, err := e.lookupCamera(camName)
	if err != nil {
		return nil, err
	}
	info := cam.cfg.Source.Info()
	clock := info.Clock()

	iv := vtime.NewInterval(clock.FrameAt(st.Begin), clock.FrameAt(st.End))
	iv = iv.Intersect(info.Bounds())
	if iv.Empty() {
		return nil, fmt.Errorf("core: SPLIT window %v–%v is outside camera %q's stream", st.Begin, st.End, camName)
	}

	toFrames := func(d query.Dur) (int64, error) {
		if d.IsFrames {
			return d.Frames, nil
		}
		return info.FPS.Frames(time.Duration(d.Seconds * float64(time.Second)))
	}
	chunkF, err := toFrames(st.Chunk)
	if err != nil {
		return nil, fmt.Errorf("core: chunk duration: %w", err)
	}
	if chunkF <= 0 {
		return nil, fmt.Errorf("core: chunk duration must be at least one frame")
	}
	strideF, err := toFrames(st.Stride)
	if err != nil {
		return nil, fmt.Errorf("core: stride: %w", err)
	}

	// Resolve the mask: the effective policy comes from the published
	// policy map entry; no mask means the camera default. Every camera
	// of a multi-camera SPLIT must publish the mask itself.
	src := cam.cfg.Source
	pol := cam.cfg.Policy
	if st.Mask != "" {
		if cam.cfg.Policies == nil {
			return nil, fmt.Errorf("core: camera %q publishes no masks", camName)
		}
		entry, ok := cam.cfg.Policies.Lookup(st.Mask)
		if !ok {
			return nil, fmt.Errorf("core: camera %q has no mask %q", camName, st.Mask)
		}
		src = video.Masked(src, entry.Mask)
		pol = entry.Policy
	}

	sh := &splitShard{
		cam: cam, pol: pol, maskID: st.Mask, schemeName: st.Region,
		interval: iv, chunkF: chunkF, strideF: strideF,
	}

	if st.Region != "" {
		sch, ok := cam.cfg.Schemes[st.Region]
		switch {
		case ok:
			// Soft boundaries require chunk size 1 so an individual
			// can be in at most one chunk at a time (§7.2).
			if !sch.Hard && chunkF != 1 {
				return nil, fmt.Errorf("core: scheme %q has soft boundaries; BY REGION requires BY TIME 1frame", st.Region)
			}
			sh.regionsPerEvent = 1
		default:
			// Grid Split (§7.2 extension): any chunk size, with the
			// per-event region count derived from the owner's
			// object-size and speed bounds.
			g, gok := cam.cfg.GridSchemes[st.Region]
			if !gok {
				return nil, fmt.Errorf("core: camera %q has no region scheme %q", camName, st.Region)
			}
			sch = g.Scheme()
			sh.regionsPerEvent = g.RegionsPerChunk(chunkF, info.FPS)
		}
		for name, rsrc := range sch.Sources(src) {
			sh.splits = append(sh.splits, video.Split{
				Source:       rsrc,
				Interval:     iv,
				ChunkFrames:  chunkF,
				StrideFrames: strideF,
				Region:       name,
			})
		}
		sh.regions = len(sch.Regions)
	} else {
		sh.splits = []video.Split{{
			Source:       src,
			Interval:     iv,
			ChunkFrames:  chunkF,
			StrideFrames: strideF,
		}}
	}
	return sh, nil
}

// runProcess executes the analyst's executable over every chunk of the
// plan and materializes the intermediate table. Multi-camera plans run
// as a sharded pipeline: one scanShard per camera shard fans out over
// the engine's pool (bounded per camera by PerCameraParallelism) and
// hits the chunk cache independently per camera — an N-camera query
// costs about the slowest shard's wall-clock, not the sum. Rows of
// multi-camera tables carry the trusted implicit camera column.
//
// Chunk results are memoized in the engine's chunk cache (when
// enabled): a chunk whose (content identity, executable, contract
// limits) key is already cached skips sandbox execution entirely.
// Caching affects only how fast the table materializes — admission and
// noise downstream never observe whether a row came from the sandbox
// or the cache.
//
// When every consuming SELECT of the table is a mergeable aggregation
// (cands, pre-grouped by executeStages; rel.PlanPartial accepts each),
// runProcess scans into a foldSink instead of a tableSink: each shard
// folds chunk blocks into per-plan partial states and the
// full intermediate table is never materialized — peak memory scales
// with groups × cameras, not rows. The finalized releases are returned
// alongside an empty (schema- and metadata-correct) instance; they are
// differentially tested to match ExecuteSelect over the materialized
// table exactly. Per-chunk states are additionally memoized in the
// chunk cache's partial-state tier keyed on chunk content × plan
// identity, so a warm repeated or overlapping-window query skips both
// the sandbox and the per-chunk fold.
func (e *Engine) runProcess(st *query.ProcessStmt, plan *splitPlan, cands []*query.SelectStmt, sp *obs.Span) (*rel.Instance, map[*query.SelectStmt][]rel.Release, error) {
	if plan == nil || len(plan.shards) == 0 {
		return nil, nil, fmt.Errorf("core: PROCESS input %q has no SPLIT", st.Input)
	}
	fn, ok := e.registry.Lookup(st.Using)
	if !ok {
		return nil, nil, fmt.Errorf("core: executable %q not registered", st.Using)
	}
	cols := make([]table.Column, len(st.Schema))
	for i, c := range st.Schema {
		cols[i] = table.Column{Name: c.Name, Type: c.Type, Default: c.Default}
	}
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: PROCESS schema: %w", err)
	}
	// The executor always runs with a positive timeout. The parser
	// guarantees st.Timeout > 0 for parsed programs; programmatically
	// built Programs may leave it zero, which without the default would
	// make RunChecked block forever on a hung ProcessFunc — and, since
	// the slot-grace backstop scales off the timeout, leak that
	// execution's Parallelism slot permanently.
	effTimeout := st.Timeout
	if effTimeout <= 0 {
		effTimeout = e.opts.DefaultProcessTimeout
	}
	exec := sandbox.Executor{
		Fn:      fn,
		Timeout: effTimeout,
		MaxRows: st.MaxRows,
		Schema:  schema,
	}

	hasRegion := plan.shards[0].regions > 0
	full := schema.WithImplicitCols(hasRegion, plan.multi)

	// Shard metadata is derived entirely from the resolved plan — build
	// it up front so pushdown planning can see the same sensitivity
	// inputs ExecuteSelect would.
	metas := make([]rel.TableMeta, len(plan.shards))
	for i, sh := range plan.shards {
		info := sh.cam.cfg.Source.Info()
		clock := info.Clock()
		metas[i] = rel.TableMeta{
			Name:            st.Into,
			Camera:          sh.cam.cfg.Name,
			MaxRows:         st.MaxRows,
			ChunkFrames:     sh.chunkF,
			StrideFrames:    sh.strideF,
			FPS:             info.FPS,
			NumChunks:       sh.splits[0].NumChunks(),
			Begin:           clock.TimeOf(sh.interval.Start),
			End:             clock.TimeOf(sh.interval.End),
			Policy:          sh.pol,
			Regions:         sh.regions,
			RegionsPerEvent: sh.regionsPerEvent,
		}
	}

	// Pushdown decision: every candidate SELECT must plan as a mergeable
	// aggregation, else the whole table falls back to materialization
	// (a single table cannot be both streamed and materialized).
	var pplans []*rel.PartialPlan
	var ids []string // plan identities: partial-state cache key prefixes
	for _, sel := range cands {
		pp := rel.PlanPartial(sel, st.Into, full, metas)
		if pp == nil {
			e.ppDeclined.Add(1)
			pplans = nil
			break
		}
		pplans = append(pplans, pp)
		ids = append(ids, pp.ID())
	}
	if pplans != nil {
		e.ppPlans.Add(uint64(len(pplans)))
		sp.Set("pushdown_plans", len(pplans))
	}

	ps := processScan{
		st: st, exec: exec, schema: schema, full: full,
		hasRegion: hasRegion, multi: plan.multi, par: e.opts.Parallelism,
	}
	if len(plan.shards) > 1 {
		ps.par = e.opts.PerCameraParallelism
	}
	sinks := make([]shardSink, len(plan.shards))
	for i := range sinks {
		if pplans != nil {
			sinks[i] = &foldSink{plans: pplans, ids: ids}
		} else {
			sinks[i] = &tableSink{}
		}
	}
	// Shards finish in any order, but each lands in its own sink, so the
	// shards combine below in shard-index order and the result is
	// deterministic (dedup picks the same representative rows whatever
	// the shard timing).
	errs := make([]error, len(plan.shards))
	if len(plan.shards) == 1 || e.opts.SerialShards {
		for i, sh := range plan.shards {
			errs[i] = e.scanShard(ps, sh, sinks[i], sp)
		}
	} else {
		var wg sync.WaitGroup
		for i, sh := range plan.shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = e.scanShard(ps, sh, sinks[i], sp)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	if pplans == nil {
		data := table.New(full)
		for _, s := range sinks {
			data.AppendTable(s.(*tableSink).out)
		}
		return rel.NewInstance(data, metas...), nil, nil
	}
	agg := make([]*rel.PartialState, len(pplans))
	for p, pp := range pplans {
		agg[p] = pp.NewState()
	}
	for _, s := range sinks {
		for p, pp := range pplans {
			pp.Merge(agg[p], s.(*foldSink).states[p])
			e.ppMerges.Add(1)
		}
	}
	rels := make(map[*query.SelectStmt][]rel.Release, len(cands))
	for p, sel := range cands {
		rels[sel] = pplans[p].Finalize(agg[p])
	}
	// The env still gets an instance with the right schema and shard
	// metadata, but no rows: every SELECT over this table is answered
	// from the merged states above.
	return rel.NewInstance(table.New(full), metas...), rels, nil
}

// processScan is what every shard scan of one PROCESS statement shares.
type processScan struct {
	st        *query.ProcessStmt
	exec      sandbox.Executor
	schema    table.Schema // the declared PROCESS schema
	full      table.Schema // schema plus the implicit columns
	hasRegion bool
	multi     bool
	par       int // bound on one shard's concurrent chunks
}

// shardScan is one shard's scan as its sink sees it.
type shardScan struct {
	processScan
	e      *Engine
	camera string
	tl     shardTallies
}

// consts appends to dst[:0] the implicit columns stamped on every row
// of a chunk: its start (Unix seconds), then its region and camera when
// the table carries them.
func (s *shardScan) consts(dst []table.Value, start float64, region string) []table.Value {
	dst = append(dst[:0], table.N(start))
	if s.hasRegion {
		dst = append(dst, table.S(region))
	}
	if s.multi {
		dst = append(dst, table.S(s.camera))
	}
	return dst
}

// A shardSink is what scanShard does with one shard's chunks: step
// runs once per chunk, concurrently with the shard's other chunks, and
// finish combines the results in chunk order after every step has
// returned.
type shardSink interface {
	// step handles one chunk; key is its chunk-cache key ("" when the
	// cache is off).
	step(s *shardScan, chunk *video.Chunk, key string) chunkResult
	// finish also sets the shard span's "rows" attribute.
	finish(s *shardScan, results []chunkResult, ssp *obs.Span)
}

// chunkResult is what a sink's step leaves for its finish.
type chunkResult struct {
	blk    *table.Table
	start  float64 // chunk start, Unix seconds
	region string
	states []*rel.PartialState
	err    error
}

// scanShard runs the PROCESS over every active chunk of one camera
// shard into sink. It builds each split's chunk-cache key prefix once
// and runs sink.step on at most ps.par chunks at once; the engine-wide
// procSem still bounds sandbox executions across all shards and
// queries. It records one child span per shard under the PROCESS span
// (concurrent shards annotate sibling spans; Span is mutex-guarded).
func (e *Engine) scanShard(ps processScan, sh *splitShard, sink shardSink, psp *obs.Span) error {
	s := &shardScan{processScan: ps, e: e, camera: sh.cam.cfg.Name}
	ssp := psp.Child("shard")
	defer ssp.End()
	ords := make([][]int64, len(sh.splits))
	n := 0
	for i, split := range sh.splits {
		ords[i] = split.ActiveChunks()
		n += len(ords[i])
	}
	ssp.Set("camera", s.camera)
	ssp.Set("chunks", n)

	results := make([]chunkResult, n)
	scan := func(split *video.Split, prefix string, ord int64, r *chunkResult) {
		chunk := split.ChunkAt(ord)
		var key string
		if e.chunkCache != nil {
			key = prefix + chunkKeySuffix(chunk.Interval)
		}
		*r = sink.step(s, chunk, key)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, ps.par)
	i := 0
	for si := range sh.splits {
		split := &sh.splits[si]
		var prefix string
		if e.chunkCache != nil {
			prefix = chunkKeyPrefix(
				s.camera, sh.maskID, sh.schemeName,
				split.Region, ps.st.Using, ps.st.Timeout, ps.st.MaxRows, ps.schema,
				sh.chunkF, sh.strideF)
		}
		for _, ord := range ords[si] {
			r := &results[i]
			i++
			if ps.par <= 1 || n <= 1 {
				scan(split, prefix, ord, r)
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				scan(split, prefix, ord, r)
			}()
		}
	}
	wg.Wait()
	e.spanTallies(ssp, &s.tl)
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
	}
	sink.finish(s, results, ssp)
	return nil
}

// tableSink materializes a shard's stamped rows.
type tableSink struct {
	out *table.Table
}

func (t *tableSink) step(s *shardScan, chunk *video.Chunk, key string) chunkResult {
	blk, _ := s.e.fetchChunkBlock(key, chunk, s.exec, &s.tl)
	return chunkResult{blk: blk, start: float64(chunk.Start.Unix()), region: chunk.Region}
}

// finish stamps each block's implicit columns as per-block constants
// while appending: column-wise copies, no row materialization.
func (t *tableSink) finish(s *shardScan, results []chunkResult, ssp *obs.Span) {
	t.out = table.New(s.full)
	consts := make([]table.Value, 0, 3)
	for _, r := range results {
		consts = s.consts(consts, r.start, r.region)
		t.out.AppendBlock(r.blk, consts...)
	}
	ssp.Set("rows", t.out.Len())
}

// foldSink folds a shard's chunks into one partial state per pushdown
// plan without materializing its rows.
type foldSink struct {
	plans  []*rel.PartialPlan
	ids    []string            // plan identities: partial-state cache key prefixes
	states []*rel.PartialState // the shard's merged states, index-aligned with plans
}

// step skips the sandbox and the fold when every plan's state for the
// chunk is cached. Otherwise it folds the chunk's block per plan and
// memoizes the states of clean executions only, mirroring the table
// tier's fallback-row rule. A fold error is unreachable for a plan
// rel.PlanPartial accepted; it is returned rather than swallowed so a
// planner bug turns into a query error, never a wrong release.
func (f *foldSink) step(s *shardScan, chunk *video.Chunk, key string) chunkResult {
	e := s.e
	if states := f.cachedStates(e.chunkCache, key); states != nil {
		s.tl.stateChunks.Add(1)
		e.ppCachedChunks.Add(1)
		return chunkResult{states: states}
	}
	blk, clean := e.fetchChunkBlock(key, chunk, s.exec, &s.tl)
	// Stamp the implicit columns onto a per-chunk mini-table so the fold
	// sees exactly the rows this chunk contributes to the materialized
	// table (same consts, same order).
	mini := table.New(s.full)
	mini.AppendBlock(blk, s.consts(make([]table.Value, 0, 3), float64(chunk.Start.Unix()), chunk.Region)...)
	states := make([]*rel.PartialState, len(f.plans))
	for p, pp := range f.plans {
		ps, err := pp.Partial(mini, s.camera)
		if err != nil {
			return chunkResult{err: fmt.Errorf("core: partial fold of chunk %d: %w", chunk.Ordinal, err)}
		}
		s.tl.folds.Add(1)
		e.ppFolds.Add(1)
		if clean && e.chunkCache != nil {
			e.chunkCache.PutRaw(stateKey(f.ids[p], key), ps.EncodeBinary())
		}
		states[p] = ps
	}
	return chunkResult{states: states}
}

// cachedStates returns every plan's cached state for the chunk, or nil
// when the cache is off or any state is missing or unusable (bit rot or
// a stale incompatible entry, which the fold path then overwrites).
func (f *foldSink) cachedStates(c cache.Cache, key string) []*rel.PartialState {
	if c == nil {
		return nil
	}
	states := make([]*rel.PartialState, len(f.plans))
	for p, pp := range f.plans {
		raw, ok := c.GetRaw(stateKey(f.ids[p], key))
		if !ok {
			return nil
		}
		dec, err := rel.DecodePartialState(raw)
		if err != nil || !pp.Compatible(dec) {
			return nil
		}
		states[p] = dec
	}
	return states
}

func (f *foldSink) finish(s *shardScan, results []chunkResult, ssp *obs.Span) {
	f.states = make([]*rel.PartialState, len(f.plans))
	for p, pp := range f.plans {
		f.states[p] = pp.NewState()
	}
	for _, r := range results {
		for p, pp := range f.plans {
			pp.Merge(f.states[p], r.states[p])
			s.e.ppMerges.Add(1)
		}
	}
	ssp.Set("mode", "pushdown")
	ssp.Set("rows", int(f.states[0].Rows))
}

// shardTallies accumulates one shard's per-chunk counters in atomics
// (the chunk workers run concurrently); they land on the shard span
// once, keeping the span's mutex off the per-chunk hot path.
type shardTallies struct {
	hits, misses, sandboxNanos           atomic.Int64
	sfFollowers, sfHandoffs, sfAbandoned atomic.Int64
	stateChunks, folds                   atomic.Int64
}

// spanTallies lands the accumulated counters on a shard span.
func (e *Engine) spanTallies(ssp *obs.Span, tl *shardTallies) {
	if ssp == nil {
		return
	}
	if e.chunkCache != nil {
		ssp.Add("cache_hits", float64(tl.hits.Load()))
		ssp.Add("cache_misses", float64(tl.misses.Load()))
		// Chunks this shard did not execute because a concurrent
		// miss elsewhere led the same key (plus the failure modes:
		// promotions after a failed leader, waits abandoned after
		// flightWaitMultiple×TIMEOUT).
		if n := tl.sfFollowers.Load(); n > 0 {
			ssp.Add("singleflight_followers", float64(n))
		}
		if n := tl.sfHandoffs.Load(); n > 0 {
			ssp.Add("singleflight_handoffs", float64(n))
		}
		if n := tl.sfAbandoned.Load(); n > 0 {
			ssp.Add("singleflight_abandoned", float64(n))
		}
		// Chunks whose every plan's partial state came from the cache —
		// no sandbox execution and no fold.
		if n := tl.stateChunks.Load(); n > 0 {
			ssp.Add("partial_state_chunks", float64(n))
		}
	}
	if n := tl.folds.Load(); n > 0 {
		ssp.Add("partial_folds", float64(n))
	}
	ssp.Add("sandbox_seconds", time.Duration(tl.sandboxNanos.Load()).Seconds())
}

// fetchChunkBlock obtains one chunk's block in the declared schema —
// from the table cache, a singleflight peer, or a sandbox execution —
// and reports whether the block is clean (cache hits and shared
// results always are; an execution is clean unless the sandbox
// substituted fallback rows). key is empty exactly when the chunk
// cache is disabled.
func (e *Engine) fetchChunkBlock(key string, chunk *video.Chunk, exec sandbox.Executor, tl *shardTallies) (*table.Table, bool) {
	// execChunk is one raw sandbox execution: acquire a slot, run the
	// executable, return the chunk's block in the declared schema and
	// whether it completed cleanly.
	execChunk := func() (*table.Table, bool) {
		// The engine-wide semaphore keeps the total number of
		// in-flight sandbox executions — across every query
		// running concurrently — at Parallelism, so serving
		// many analysts cannot oversubscribe the CPU and push
		// executables past their wall-clock TIMEOUT.
		//
		// The slot is released when the executable goroutine
		// exits (on a timeout that is later than RunChecked's
		// return, so a slow executable cannot be double-booked)
		// — except that a hung executable forfeits its slot
		// after a grace period, so one non-terminating
		// ProcessFunc degrades to a bounded CPU leak instead of
		// permanently wedging every analyst's queries.
		e.procSem <- struct{}{}
		var once sync.Once
		var released atomic.Bool
		release := func() {
			once.Do(func() {
				released.Store(true)
				<-e.procSem
			})
		}
		runExec := exec
		runExec.Done = release
		execStart := time.Now()
		rows, clean := runExec.RunChecked(chunk)
		execDur := time.Since(execStart)
		e.met.sandbox(execDur, clean)
		tl.sandboxNanos.Add(int64(execDur))
		// Arm the grace backstop only when the slot is still
		// held — a panic's goroutine has already exited and
		// released, so it needs no timer. (A release racing
		// this check just leaves one harmless no-op timer.)
		// exec.Timeout is always positive (runProcess substitutes
		// the default for TIMEOUT-less programmatic statements), so
		// the backstop can always arm.
		if !clean && !released.Load() {
			time.AfterFunc(slotGraceMultiple*exec.Timeout, release)
		}
		return table.FromRows(exec.Schema, rows), clean
	}
	if e.chunkCache == nil {
		return execChunk()
	}
	if blk, ok := e.chunkCache.Get(key); ok {
		tl.hits.Add(1)
		return blk, true
	}
	tl.misses.Add(1)
	// Coalesce concurrent misses on this key onto one sandbox
	// execution: the leader executes and publishes, followers
	// share the frozen block by pointer.
	blk, clean, outcome := e.flight.Do(key, flightWaitMultiple*exec.Timeout, func() (*table.Table, bool) {
		// Re-check the cache under flight leadership: a clean
		// result published between this goroutine's miss above
		// and its Do call is in the cache by now (leaders cache
		// before dissolving the flight), and must not be
		// re-executed. Peek, not Get — the miss was already
		// counted above, and this internal re-check must not
		// distort the analyst-visible hit rate.
		if blk, ok := e.chunkCache.Peek(key); ok {
			return blk, true
		}
		blk, clean := execChunk()
		// Timeout/panic fallback rows depend on machine load,
		// not on the chunk; caching them would poison every
		// later query over this chunk with default rows. The
		// flight applies the same rule: an unclean result is
		// never published to followers (leadership is handed
		// off instead).
		if clean {
			e.chunkCache.Put(key, blk) // freezes blk
		}
		return blk, clean
	})
	switch outcome {
	case cache.Shared:
		tl.sfFollowers.Add(1)
	case cache.Handoff:
		tl.sfHandoffs.Add(1)
	case cache.Abandoned:
		tl.sfAbandoned.Add(1)
	}
	return blk, clean
}
