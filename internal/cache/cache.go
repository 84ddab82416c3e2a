// Package cache provides the concurrency-safe, size-bounded caches the
// engine uses to memoize PROCESS results per chunk: a tier-1 in-RAM
// LRU of immutable columnar tables and an optional tier-2 append-only
// disk store (disk.go) that survives process restarts, composed by
// Tiered (tiered.go).
//
// Why memoization is sound: the sandbox contract (Appendix B, enforced
// by internal/sandbox) requires every ProcessFunc to be a pure function
// of its chunk — no state may survive across invocations and nothing
// but the chunk's frames may influence the output. Two chunks that show
// the same camera through the same mask over the same absolute frame
// range, cropped to the same region and processed by the same
// executable under the same schema/row/timeout limits, are therefore
// interchangeable, and the intermediate-table rows they produce can be
// reused across queries and across overlapping SPLIT windows.
//
// Why memoization is private: the cache sits strictly on the cost side
// of the engine. Budget admission (Algorithm 1) charges a query for the
// frame intervals its releases depend on, whether or not the rows that
// produced those releases came from a cache hit — a hit changes how
// fast an answer is computed, never which answers are admitted, how
// much ε they consume, or how much noise they carry.
//
// Why sharing is safe: Put freezes the stored table (table.Freeze), so
// every Get can hand back the same *table.Table without copying — any
// attempted mutation panics instead of corrupting other readers. The
// engine stamps implicit columns via Table.AppendBlock, which copies
// out of the frozen block rather than appending to its rows.
package cache

import (
	"container/list"
	"sync"

	"privid/internal/table"
)

// entryOverhead approximates the fixed bookkeeping bytes per cache
// entry (map bucket, list element, key string header, slice headers).
const entryOverhead = 128

// Stats is a snapshot of cache effectiveness counters. Tier-1 (RAM)
// counters are always populated; Disk* fields stay zero unless a disk
// tier is configured.
type Stats struct {
	// Hits and Misses count Get outcomes since construction. For a
	// tiered cache a Get that is served by either tier counts as a hit.
	Hits, Misses uint64
	// Puts counts stored entries (including overwrites). Disk→RAM
	// promotions are deliberately excluded — they are tier migrations,
	// counted in Promotions — so Puts reflects real write-through
	// traffic.
	Puts uint64
	// Evictions counts entries dropped to stay under the byte bound.
	Evictions uint64
	// Entries is the current entry count.
	Entries int
	// Bytes is the current approximate memory footprint.
	Bytes int64
	// MaxBytes is the configured bound.
	MaxBytes int64

	// DiskHits and DiskMisses count lookups that fell through to the
	// disk tier and whether it held the entry.
	DiskHits, DiskMisses uint64
	// DiskPuts counts entries appended to the disk tier.
	DiskPuts uint64
	// Promotions counts disk hits copied back into the RAM tier.
	Promotions uint64
	// DiskBytes and DiskMaxBytes are the current and configured size
	// of the disk tier; DiskSegments is its segment-file count.
	DiskBytes, DiskMaxBytes int64
	DiskSegments            int
	// DiskEvictions counts whole segments dropped to respect
	// DiskMaxBytes.
	DiskEvictions uint64

	// StateHits/StateMisses/StatePuts count the raw partial-state tier
	// (GetRaw/PutRaw): encoded mergeable aggregate states keyed on
	// chunk content × aggregation-plan identity. They are accounted
	// separately from the table counters above so the table-tier hit
	// rate and write-through rate stay comparable across releases that
	// predate aggregation pushdown.
	StateHits, StateMisses, StatePuts uint64
	// DiskStateHits/DiskStateMisses/DiskStatePuts are the disk tier's
	// share of the raw-state traffic.
	DiskStateHits, DiskStateMisses, DiskStatePuts uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the interface the engine memoizes chunk results behind:
// either a bare LRU, a bare Disk store, or the two composed by Tiered.
// Implementations are safe for concurrent use. Tables returned by Get
// are frozen and shared; callers must not mutate them.
type Cache interface {
	Get(key string) (*table.Table, bool)
	// Peek is Get without side effects: no hit/miss accounting, no
	// recency update, no tier promotion. The engine's singleflight
	// leader uses it to re-check for a result published while it was
	// queueing — an internal consistency check that must not distort
	// the analyst-visible hit rate.
	Peek(key string) (*table.Table, bool)
	Put(key string, t *table.Table)
	// GetRaw and PutRaw store opaque byte payloads — encoded partial
	// aggregate states — in the same tiers under their own counters.
	// Raw keys and table keys live in disjoint namespaces (the engine
	// prefixes raw keys with the aggregation plan's versioned identity,
	// which can never collide with a quoted camera name), so one store
	// serves both kinds. The returned slice is shared; callers must not
	// mutate it, and must not mutate a slice after PutRaw.
	GetRaw(key string) ([]byte, bool)
	PutRaw(key string, raw []byte)
	Stats() Stats
	// Close releases any resources (disk tiers sync and unmap). The
	// cache must not be used after Close.
	Close() error
}

// LRU is a least-recently-used cache from string keys to frozen
// intermediate tables, bounded by approximate total bytes. It is safe
// for concurrent use.
type LRU struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element

	hits, misses, puts, evictions     uint64
	stateHits, stateMisses, statePuts uint64
}

// lruEntry is one cached value: a frozen table (tbl non-nil) or a raw
// partial-state payload (tbl nil, raw set). The two kinds share the
// recency list and byte bound — a hot table can evict a cold state and
// vice versa.
type lruEntry struct {
	key  string
	tbl  *table.Table
	raw  []byte
	cost int64
}

// New returns an empty cache bounded at maxBytes (approximate).
// maxBytes <= 0 yields a cache that stores nothing, so callers may
// treat "no cache" uniformly.
func New(maxBytes int64) *LRU {
	return &LRU{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
}

// tableCost approximates the memory footprint of one entry.
func tableCost(key string, t *table.Table) int64 {
	return int64(entryOverhead+len(key)) + t.MemBytes()
}

// Get returns the frozen table stored under key (shared, not copied)
// and marks the entry most recently used.
func (c *LRU) Get(key string) (*table.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*lruEntry).tbl == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).tbl, true
}

// GetRaw returns the raw partial-state payload stored under key
// (shared, not copied) and marks the entry most recently used.
func (c *LRU) GetRaw(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*lruEntry).tbl != nil {
		c.stateMisses++
		return nil, false
	}
	c.stateHits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).raw, true
}

// Peek returns the stored table without counting a hit or miss and
// without touching the entry's recency.
func (c *LRU) Peek(key string) (*table.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*lruEntry).tbl == nil {
		return nil, false
	}
	return el.Value.(*lruEntry).tbl, true
}

// Put freezes t and stores it under key, evicting least-recently-used
// entries as needed to respect the byte bound. The caller must not
// mutate t after Put (Freeze makes any attempt panic). An entry larger
// than the whole bound is not stored.
func (c *LRU) Put(key string, t *table.Table) { c.put(key, t, true) }

// promote stores t like Put but without counting it in Puts: a
// disk→RAM promotion is a tier migration of an entry that was already
// written through, not new write traffic, and conflating the two hides
// the real write-through rate from operators (the composite cache
// counts promotions separately in Stats.Promotions).
func (c *LRU) promote(key string, t *table.Table) { c.put(key, t, false) }

// PutRaw stores a raw partial-state payload under key, subject to the
// same byte bound and eviction policy as tables. The caller must not
// mutate raw afterwards.
func (c *LRU) PutRaw(key string, raw []byte) { c.putRaw(key, raw, true) }

// promoteRaw is PutRaw without the StatePuts accounting, for disk→RAM
// migrations (mirrors promote).
func (c *LRU) promoteRaw(key string, raw []byte) { c.putRaw(key, raw, false) }

func (c *LRU) putRaw(key string, raw []byte, countPut bool) {
	cost := int64(entryOverhead + len(key) + len(raw))
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		return
	}
	if countPut {
		c.statePuts++
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += cost - ent.cost
		ent.tbl = nil
		ent.raw = raw
		ent.cost = cost
		c.ll.MoveToFront(el)
	} else {
		ent := &lruEntry{key: key, raw: raw, cost: cost}
		c.items[key] = c.ll.PushFront(ent)
		c.bytes += cost
	}
	for c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

func (c *LRU) put(key string, t *table.Table, countPut bool) {
	t.Freeze()
	cost := tableCost(key, t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		// Too large to ever fit; admitting it would flush everything.
		return
	}
	if countPut {
		c.puts++
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += cost - ent.cost
		ent.tbl = t
		ent.cost = cost
		c.ll.MoveToFront(el)
	} else {
		ent := &lruEntry{key: key, tbl: t, cost: cost}
		c.items[key] = c.ll.PushFront(ent)
		c.bytes += cost
	}
	for c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry. Caller holds c.mu.
func (c *LRU) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.cost
	c.evictions++
}

// Close implements Cache; an in-RAM tier has nothing to release.
func (c *LRU) Close() error { return nil }

// Stats returns a snapshot of the cache counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Puts:        c.puts,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		MaxBytes:    c.maxBytes,
		StateHits:   c.stateHits,
		StateMisses: c.stateMisses,
		StatePuts:   c.statePuts,
	}
}
