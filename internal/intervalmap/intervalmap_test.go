package intervalmap

import (
	"math/rand"
	"testing"
)

func TestZeroValue(t *testing.T) {
	var m Map
	if m.Get(0) != 0 || m.Get(-100) != 0 || m.Get(1<<40) != 0 {
		t.Fatalf("zero map should be identically zero")
	}
	if m.Min(0, 100) != 0 || m.Max(0, 100) != 0 {
		t.Fatalf("zero map range queries should be zero")
	}
}

func TestAddRangeBasic(t *testing.T) {
	var m Map
	m.AddRange(10, 20, 1.5)
	for _, tt := range []struct {
		k    int64
		want float64
	}{{9, 0}, {10, 1.5}, {19, 1.5}, {20, 0}, {0, 0}} {
		if got := m.Get(tt.k); got != tt.want {
			t.Errorf("Get(%d)=%v, want %v", tt.k, got, tt.want)
		}
	}
}

func TestAddRangeOverlap(t *testing.T) {
	var m Map
	m.AddRange(0, 10, 1)
	m.AddRange(5, 15, 2)
	cases := []struct {
		k    int64
		want float64
	}{{0, 1}, {4, 1}, {5, 3}, {9, 3}, {10, 2}, {14, 2}, {15, 0}}
	for _, tt := range cases {
		if got := m.Get(tt.k); got != tt.want {
			t.Errorf("Get(%d)=%v, want %v", tt.k, got, tt.want)
		}
	}
	if got := m.Max(0, 20); got != 3 {
		t.Errorf("Max=%v, want 3", got)
	}
	if got := m.Min(0, 15); got != 1 {
		t.Errorf("Min=%v, want 1", got)
	}
	if got := m.Min(0, 20); got != 0 {
		t.Errorf("Min over trailing zero=%v, want 0", got)
	}
}

func TestEmptyRangeNoOp(t *testing.T) {
	var m Map
	m.AddRange(10, 10, 5)
	m.AddRange(20, 10, 5)
	if m.Breakpoints() != 0 {
		t.Fatalf("empty AddRange should be a no-op, got %v", m.String())
	}
}

func TestCoalesce(t *testing.T) {
	var m Map
	m.AddRange(0, 10, 1)
	m.AddRange(10, 20, 1)
	// Should coalesce to a single segment [0,20)=1 plus terminator.
	if m.Breakpoints() != 2 {
		t.Errorf("expected 2 breakpoints after coalesce, got %d (%v)", m.Breakpoints(), m.String())
	}
	m.AddRange(0, 20, -1)
	if m.Breakpoints() != 0 {
		t.Errorf("cancelling should empty the map, got %v", m.String())
	}
}

func TestSegments(t *testing.T) {
	var m Map
	m.AddRange(0, 10, 1)
	m.AddRange(20, 30, 2)
	type seg struct {
		s, e int64
		v    float64
	}
	var got []seg
	m.Segments(-5, 35, func(s, e int64, v float64) { got = append(got, seg{s, e, v}) })
	want := []seg{{-5, 0, 0}, {0, 10, 1}, {10, 20, 0}, {20, 30, 2}, {30, 35, 0}}
	if len(got) != len(want) {
		t.Fatalf("segments=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Total measure must equal the queried span.
	var total int64
	for _, s := range got {
		total += s.e - s.s
	}
	if total != 40 {
		t.Errorf("segments cover %d frames, want 40", total)
	}
}

func TestClone(t *testing.T) {
	var m Map
	m.AddRange(0, 10, 1)
	c := m.Clone()
	c.AddRange(0, 10, 1)
	if m.Get(5) != 1 || c.Get(5) != 2 {
		t.Fatalf("clone not independent: m=%v c=%v", m.Get(5), c.Get(5))
	}
}

// TestAgainstReference cross-checks the interval map against a dense
// per-key array under a randomized workload — the core correctness
// property the privacy-budget ledger depends on.
func TestAgainstReference(t *testing.T) {
	const keys = 200
	rng := rand.New(rand.NewSource(42))
	var m Map
	ref := make([]float64, keys)
	for op := 0; op < 500; op++ {
		s := int64(rng.Intn(keys))
		e := int64(rng.Intn(keys))
		if s > e {
			s, e = e, s
		}
		v := float64(rng.Intn(7)) - 3
		m.AddRange(s, e, v)
		for k := s; k < e; k++ {
			ref[k] += v
		}
		// Spot-check point queries.
		for probe := 0; probe < 10; probe++ {
			k := int64(rng.Intn(keys))
			if got := m.Get(k); got != ref[k] {
				t.Fatalf("op %d: Get(%d)=%v, want %v\nmap=%v", op, k, got, ref[k], m.String())
			}
		}
		// Spot-check a range min/max.
		qs := int64(rng.Intn(keys))
		qe := qs + int64(rng.Intn(keys-int(qs))+1)
		wantMin, wantMax := ref[qs], ref[qs]
		for k := qs; k < qe; k++ {
			if ref[k] < wantMin {
				wantMin = ref[k]
			}
			if ref[k] > wantMax {
				wantMax = ref[k]
			}
		}
		if got := m.Min(qs, qe); got != wantMin {
			t.Fatalf("op %d: Min(%d,%d)=%v, want %v", op, qs, qe, got, wantMin)
		}
		if got := m.Max(qs, qe); got != wantMax {
			t.Fatalf("op %d: Max(%d,%d)=%v, want %v", op, qs, qe, got, wantMax)
		}
	}
}

func TestSparseMemory(t *testing.T) {
	// A year of 30fps video with 100 queries should cost O(queries)
	// breakpoints, never O(frames).
	var m Map
	const yearFrames = int64(365 * 24 * 3600 * 30)
	for i := int64(0); i < 100; i++ {
		start := i * (yearFrames / 100)
		m.AddRange(start, start+yearFrames/200, 0.01)
	}
	if bp := m.Breakpoints(); bp > 250 {
		t.Fatalf("breakpoints=%d, want O(queries)", bp)
	}
	if got := m.Max(0, yearFrames); got != 0.01 {
		t.Fatalf("Max=%v", got)
	}
}

func BenchmarkAddRange(b *testing.B) {
	var m Map
	for i := 0; i < b.N; i++ {
		s := int64(i%1000) * 100
		m.AddRange(s, s+50, 0.1)
	}
}

func BenchmarkMinQuery(b *testing.B) {
	var m Map
	for i := int64(0); i < 1000; i++ {
		m.AddRange(i*100, i*100+50, float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Min(int64(i%1000)*100-25, int64(i%1000)*100+75)
	}
}
