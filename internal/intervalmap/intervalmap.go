// Package intervalmap implements a piecewise-constant map from int64
// keys to float64 values, with range addition and range min/max queries.
//
// Privid assigns a separate privacy budget to every frame of every
// camera (§6.4). Storing one float per frame would cost O(frames)
// memory — a year of 30 fps video is ~10^9 frames — so the budget
// ledger stores the *spent* budget as a piecewise-constant function
// whose complexity grows with the number of queries, not frames.
package intervalmap

import (
	"fmt"
	"sort"
	"strings"
)

// Map is a piecewise-constant function over int64 keys. The zero value
// is the constant-zero function, ready to use. Map is not safe for
// concurrent mutation; the engine serializes budget operations.
type Map struct {
	// breaks are the sorted breakpoints. vals[i] is the value of the
	// function on [breaks[i], breaks[i+1]); vals[len(breaks)-1] applies
	// on [breaks[last], +inf). The value on (-inf, breaks[0]) is zero.
	// Invariant: len(vals) == len(breaks); adjacent equal values are
	// coalesced; if empty, the function is identically zero.
	breaks []int64
	vals   []float64
}

// valueBefore returns the value of the function just below key k.
func (m *Map) valueAt(k int64) float64 {
	// Find the last break <= k.
	i := sort.Search(len(m.breaks), func(i int) bool { return m.breaks[i] > k })
	if i == 0 {
		return 0
	}
	return m.vals[i-1]
}

// Get returns the value at key k.
func (m *Map) Get(k int64) float64 { return m.valueAt(k) }

// ensureBreak inserts a breakpoint at k (preserving the function) and
// returns its index.
func (m *Map) ensureBreak(k int64) int {
	i := sort.Search(len(m.breaks), func(i int) bool { return m.breaks[i] >= k })
	if i < len(m.breaks) && m.breaks[i] == k {
		return i
	}
	var v float64
	if i > 0 {
		v = m.vals[i-1]
	}
	m.breaks = append(m.breaks, 0)
	m.vals = append(m.vals, 0)
	copy(m.breaks[i+1:], m.breaks[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.breaks[i] = k
	m.vals[i] = v
	return i
}

// AddRange adds delta to every key in [start, end). It is a no-op for
// empty ranges.
func (m *Map) AddRange(start, end int64, delta float64) {
	if end <= start || delta == 0 {
		return
	}
	i := m.ensureBreak(start)
	j := m.ensureBreak(end)
	for k := i; k < j; k++ {
		m.vals[k] += delta
	}
	m.coalesce()
}

// Max returns the maximum value over [start, end). Empty ranges report 0.
func (m *Map) Max(start, end int64) float64 {
	if end <= start {
		return 0
	}
	best := m.valueAt(start)
	i := sort.Search(len(m.breaks), func(i int) bool { return m.breaks[i] > start })
	for ; i < len(m.breaks) && m.breaks[i] < end; i++ {
		if m.vals[i] > best {
			best = m.vals[i]
		}
	}
	return best
}

// Min returns the minimum value over [start, end). Empty ranges report 0.
func (m *Map) Min(start, end int64) float64 {
	if end <= start {
		return 0
	}
	best := m.valueAt(start)
	i := sort.Search(len(m.breaks), func(i int) bool { return m.breaks[i] > start })
	for ; i < len(m.breaks) && m.breaks[i] < end; i++ {
		if m.vals[i] < best {
			best = m.vals[i]
		}
	}
	return best
}

// Segments calls fn for each maximal constant segment overlapping
// [start, end), clipped to that range, in ascending order.
func (m *Map) Segments(start, end int64, fn func(s, e int64, v float64)) {
	if end <= start {
		return
	}
	cur := start
	curV := m.valueAt(start)
	i := sort.Search(len(m.breaks), func(i int) bool { return m.breaks[i] > start })
	for ; i < len(m.breaks) && m.breaks[i] < end; i++ {
		if m.breaks[i] > cur {
			fn(cur, m.breaks[i], curV)
			cur = m.breaks[i]
		}
		curV = m.vals[i]
	}
	if cur < end {
		fn(cur, end, curV)
	}
}

// Breakpoints returns the number of stored breakpoints (for tests and
// memory accounting).
func (m *Map) Breakpoints() int { return len(m.breaks) }

// Bounds returns the first and last stored breakpoint — every key
// outside [lo, hi) maps to the trailing segment's value (zero for maps
// built from bounded AddRange calls). Empty maps report (0, 0).
func (m *Map) Bounds() (lo, hi int64) {
	if len(m.breaks) == 0 {
		return 0, 0
	}
	return m.breaks[0], m.breaks[len(m.breaks)-1]
}

// coalesce merges adjacent segments with equal values and drops a
// leading zero segment, keeping the representation canonical.
func (m *Map) coalesce() {
	if len(m.breaks) == 0 {
		return
	}
	outB := m.breaks[:0]
	outV := m.vals[:0]
	for i := range m.breaks {
		if len(outV) > 0 && outV[len(outV)-1] == m.vals[i] {
			continue
		}
		if len(outV) == 0 && m.vals[i] == 0 {
			continue // leading zero segment equals the implicit background
		}
		outB = append(outB, m.breaks[i])
		outV = append(outV, m.vals[i])
	}
	m.breaks = outB
	m.vals = outV
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	out := &Map{
		breaks: append([]int64(nil), m.breaks...),
		vals:   append([]float64(nil), m.vals...),
	}
	return out
}

// String renders the non-zero segments, for debugging.
func (m *Map) String() string {
	if len(m.breaks) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteString("{")
	for i := range m.breaks {
		if i > 0 {
			b.WriteString(", ")
		}
		end := "inf"
		if i+1 < len(m.breaks) {
			end = fmt.Sprint(m.breaks[i+1])
		}
		fmt.Fprintf(&b, "[%d,%s)=%g", m.breaks[i], end, m.vals[i])
	}
	b.WriteString("}")
	return b.String()
}
