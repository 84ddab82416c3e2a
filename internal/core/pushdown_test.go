package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/obs"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
	"privid/internal/rel"
	"privid/internal/scene"
	"privid/internal/video"
)

// newPushdownEngine registers scene cameras camA (with the "halves"
// region scheme), camB and camC, plus a sparse interval camera whose
// chunks without visible objects are skipped, all running the counter
// executable.
func newPushdownEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{Seed: 1, Parallelism: 4, PerCameraParallelism: 2})
	s := countScene(30)
	halves := region.Scheme{Name: "halves", Hard: true, Regions: []region.Named{
		{Name: "top", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{X0: 0, Y0: 250, X1: 1000, Y1: 500}},
	}}
	for _, name := range []string{"camA", "camB", "camC"} {
		cfg := CameraConfig{
			Name:    name,
			Source:  &video.SceneSource{Camera: name, Scene: s},
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: 10,
		}
		if name == "camA" {
			cfg.Schemes = map[string]region.Scheme{"halves": halves}
		}
		if err := e.RegisterCamera(cfg); err != nil {
			t.Fatal(err)
		}
	}
	sparse := &video.SparseIntervalSource{IntervalSource: video.IntervalSource{
		Camera: "sparse", W: 1000, H: 500, FPS: 10,
		Start:  time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
		Frames: 36000,
	}}
	for i := 0; i < 12; i++ {
		// Bursts of two overlapping people, 5 minutes apart, leave most
		// 30-second chunks empty.
		enter := int64(i)*3000 + 137
		sparse.Objects = append(sparse.Objects,
			video.FakeObject{ID: 2 * i, Class: scene.Person, Enter: enter, Exit: enter + 400},
			video.FakeObject{ID: 2*i + 1, Class: scene.Person, Enter: enter + 90, Exit: enter + 250})
	}
	sparse.Sort()
	if err := e.RegisterCamera(CameraConfig{
		Name:    "sparse",
		Source:  sparse,
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	return e
}

// resolvePlan resolves prog's SPLITs and MERGEs and returns the chunk
// set its PROCESS reads.
func resolvePlan(t *testing.T, e *Engine, prog *query.Program) *splitPlan {
	t.Helper()
	plans := map[string]*splitPlan{}
	for _, st := range prog.Splits {
		p, err := e.resolveSplit(st)
		if err != nil {
			t.Fatal(err)
		}
		plans[st.Into] = p
	}
	for _, m := range prog.Merges {
		merged := &splitPlan{multi: true}
		for _, in := range m.Inputs {
			merged.shards = append(merged.shards, plans[in].shards...)
		}
		plans[m.Into] = merged
	}
	return plans[prog.Processes[0].Input]
}

// shardCounters reads each shard span's work counters, keyed by camera.
func shardCounters(t *testing.T, tree obs.SpanTree) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, sh := range findSpans(tree, "shard") {
		cam, _ := sh.Attrs["camera"].(string)
		if _, dup := out[cam]; dup {
			t.Fatalf("two shard spans for camera %q", cam)
		}
		out[cam] = fmt.Sprintf("chunks=%v rows=%v cache_hits=%v cache_misses=%v",
			attrNum(t, sh, "chunks"), attrNum(t, sh, "rows"),
			attrNum(t, sh, "cache_hits"), attrNum(t, sh, "cache_misses"))
	}
	return out
}

// The streaming-merge path (pushdown candidates given) must release
// exactly what ExecuteSelect computes over the materialized table
// (candidates nil), on every chunk-set shape, and its shard spans must
// report the same chunk, row and cache work. Each run gets a fresh
// engine so neither sees the other's cache entries.
func TestPushdownMatchesMaterialized(t *testing.T) {
	const proc = `
PROCESS c USING counter TIMEOUT 5sec PRODUCING 20 ROWS
  WITH SCHEMA (one:NUMBER=0) INTO t;`
	cases := []struct {
		name, src string
	}{
		{"single-camera", `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO c;` + proc + `
SELECT COUNT(*) FROM t;
SELECT SUM(range(one, 0, 1)) FROM t;
SELECT COUNT(*) FROM (SELECT one FROM t WHERE one > 0);`},
		{"3-camera-split", `
SPLIT camA, camB, camC BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO c;` + proc + `
SELECT COUNT(*) FROM t;
SELECT camera, COUNT(*) FROM t GROUP BY camera WITH KEYS ["camA", "camB", "camC"];`},
		{"merge", `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/6:30am
  BY TIME 30sec STRIDE 0sec INTO a;
SPLIT camB BEGIN 03-15-2021/6:10am END 03-15-2021/6:40am
  BY TIME 1min STRIDE 0sec INTO b;
MERGE a, b INTO c;` + proc + `
SELECT COUNT(*) FROM t;
SELECT SUM(range(one, 0, 1)) FROM t;`},
		{"by-region", `
SPLIT camA BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec BY REGION halves INTO c;` + proc + `
SELECT region, COUNT(*) FROM t GROUP BY region WITH KEYS ["top", "bottom"];
SELECT COUNT(*) FROM t;`},
		{"sparse-source", `
SPLIT sparse BEGIN 03-15-2021/6:00am END 03-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO c;` + proc + `
SELECT COUNT(*) FROM t;
SELECT SUM(range(one, 0, 1)) FROM t;`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := query.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			st := prog.Processes[0]
			run := func(cands []*query.SelectStmt) (*rel.Instance, map[*query.SelectStmt][]rel.Release, obs.SpanTree) {
				e := newPushdownEngine(t)
				tr := obs.NewTrace("query", nil)
				inst, rels, err := e.runProcess(st, resolvePlan(t, e, prog), cands, tr.Root().Child("process"))
				if err != nil {
					t.Fatal(err)
				}
				tr.Finish()
				return inst, rels, tr.Tree()
			}
			_, pushed, pushTree := run(prog.Selects)
			inst, none, matTree := run(nil)
			if none != nil {
				t.Fatalf("materialized run returned pushed releases")
			}
			procSp := findSpans(pushTree, "process")[0]
			if got := attrNum(t, procSp, "pushdown_plans"); got != float64(len(prog.Selects)) {
				t.Fatalf("pushdown_plans = %v, want %d: a candidate declined", got, len(prog.Selects))
			}
			env := rel.Env{st.Into: inst}
			for i, sel := range prog.Selects {
				want, err := rel.ExecuteSelect(sel, env)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || want[0].Raw == 0 && len(want) == 1 {
					t.Fatalf("select %d releases nothing to compare: %+v", i, want)
				}
				if !reflect.DeepEqual(pushed[sel], want) {
					t.Errorf("select %d: pushed releases differ from materialized:\npushed: %+v\nwant:   %+v", i, pushed[sel], want)
				}
			}
			push, mat := shardCounters(t, pushTree), shardCounters(t, matTree)
			if len(mat) == 0 || !reflect.DeepEqual(push, mat) {
				t.Errorf("shard span counters differ:\npushdown:     %v\nmaterialized: %v", push, mat)
			}
		})
	}
}
