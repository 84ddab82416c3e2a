package sandbox

import (
	"testing"
	"time"

	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

func testSchema() table.Schema {
	return table.MustSchema(
		table.Column{Name: "n", Type: table.DNumber, Default: table.N(-1)},
		table.Column{Name: "tag", Type: table.DString, Default: table.S("dflt")},
	)
}

// testChunk builds a chunk over an empty scene.
func testChunk(t *testing.T) *video.Chunk {
	t.Helper()
	s := &scene.Scene{Name: "t", W: 100, H: 100, FPS: 10, Frames: 1000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	s.BuildIndex()
	src := &video.SceneSource{Camera: "camA", Scene: s}
	sp := video.Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100}
	return sp.ChunkAt(0)
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	fn := func(*video.Chunk) []table.Row { return nil }
	if err := r.Register("m1", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("m1", fn); err == nil {
		t.Errorf("duplicate registration accepted")
	}
	if err := r.Register("nil", nil); err == nil {
		t.Errorf("nil func accepted")
	}
	if _, ok := r.Lookup("m1"); !ok {
		t.Errorf("Lookup failed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Errorf("Lookup found unregistered name")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "m1" {
		t.Errorf("Names=%v", names)
	}
}

func TestRunNormal(t *testing.T) {
	e := &Executor{
		Fn: func(c *video.Chunk) []table.Row {
			return []table.Row{
				{table.N(float64(c.Ordinal)), table.S("a")},
				{table.N(2), table.S("b")},
			}
		},
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	rows, _ := e.RunChecked(testChunk(t))
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].Num() != 0 || rows[0][1].Str() != "a" {
		t.Errorf("row 0 = %v", rows[0])
	}
}

func TestRunTruncatesMaxRows(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			out := make([]table.Row, 100)
			for i := range out {
				out[i] = table.Row{table.N(float64(i)), table.S("x")}
			}
			return out
		},
		Timeout: time.Second,
		MaxRows: 7,
		Schema:  testSchema(),
	}
	if rows, _ := e.RunChecked(testChunk(t)); len(rows) != 7 {
		t.Fatalf("over-production not truncated: %d rows", len(rows))
	}
}

func TestRunConformsSchema(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			return []table.Row{
				// Wrong types, extra column, short row.
				{table.S("42"), table.N(7), table.S("extraneous")},
				{table.N(1)},
			}
		},
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	rows, _ := e.RunChecked(testChunk(t))
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].Type() != table.DNumber || rows[0][0].Num() != 42 {
		t.Errorf("coercion failed: %v", rows[0][0])
	}
	if len(rows[0]) != 2 {
		t.Errorf("extraneous column kept: %v", rows[0])
	}
	// Missing column filled with the default.
	if rows[1][1].Str() != "dflt" {
		t.Errorf("missing column default: %v", rows[1])
	}
}

func TestRunPanicYieldsDefault(t *testing.T) {
	e := &Executor{
		Fn:      func(*video.Chunk) []table.Row { panic("analyst bug") },
		Timeout: time.Second,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	rows, _ := e.RunChecked(testChunk(t))
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1 default row", len(rows))
	}
	if rows[0][0].Num() != -1 || rows[0][1].Str() != "dflt" {
		t.Errorf("default row = %v", rows[0])
	}
}

func TestRunTimeoutYieldsDefault(t *testing.T) {
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			time.Sleep(200 * time.Millisecond)
			return []table.Row{{table.N(99), table.S("late")}}
		},
		Timeout: 10 * time.Millisecond,
		MaxRows: 10,
		Schema:  testSchema(),
	}
	rows, _ := e.RunChecked(testChunk(t))
	if len(rows) != 1 || rows[0][0].Num() != -1 {
		t.Fatalf("timeout did not yield default: %v", rows)
	}
}

// TestRunNoCrossChunkState demonstrates why smuggling state through a
// closure is unreliable: the engine may run chunks in any order, so
// the contract (independent instantiation per chunk) is the only
// dependable semantics. The harness additionally documents the
// prohibition; this test pins the truncation of such an attempt's
// effect to a single chunk's output budget.
func TestRunStateSmugglingStillBounded(t *testing.T) {
	counter := 0
	e := &Executor{
		Fn: func(*video.Chunk) []table.Row {
			counter++ // forbidden cross-chunk state
			out := make([]table.Row, counter*10)
			for i := range out {
				out[i] = table.Row{table.N(float64(counter)), table.S("x")}
			}
			return out
		},
		Timeout: time.Second,
		MaxRows: 5,
		Schema:  testSchema(),
	}
	c := testChunk(t)
	for i := 0; i < 10; i++ {
		rows, _ := e.RunChecked(c)
		// Whatever the smuggled state does, the per-chunk contribution
		// stays bounded by MaxRows — which is what the sensitivity
		// analysis relies on.
		if len(rows) > 5 {
			t.Fatalf("iteration %d emitted %d rows", i, len(rows))
		}
	}
}
