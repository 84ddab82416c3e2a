package main

import (
	"encoding/json"
	"sort"
	"time"

	"privid/internal/obs"
)

// coreSpans are the engine's pipeline-stage spans whose self time the
// traced run reports as core.<name>_us.
var coreSpans = []string{"split", "process", "aggregate", "admit", "wal_commit", "noise"}

// traceAgg sums the self time of each span name over the persisted
// span trees of the traced jobs. A span's self time is its duration
// minus the part of it its children cover.
type traceAgg struct {
	jobs        int
	self        map[string]time.Duration
	shardMax    time.Duration // Σ per job of the longest shard span
	processIncl time.Duration // Σ process span durations
}

func newTraceAgg() *traceAgg { return &traceAgg{self: map[string]time.Duration{}} }

func (a *traceAgg) add(raw []byte) error {
	var t obs.SpanTree
	if err := json.Unmarshal(raw, &t); err != nil {
		return err
	}
	a.jobs++
	var shardMax time.Duration
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		a.self[n.Name] += selfTime(n)
		switch n.Name {
		case "process":
			a.processIncl += time.Duration(n.DurationNS)
		case "shard":
			shardMax = max(shardMax, time.Duration(n.DurationNS))
		}
		for i := range n.Children {
			walk(&n.Children[i])
		}
	}
	walk(&t)
	a.shardMax += shardMax
	return nil
}

// selfTime is n's duration minus the union of its children's
// intervals clipped to n.
func selfTime(n *obs.SpanTree) time.Duration {
	start := n.Start
	end := start.Add(time.Duration(n.DurationNS))
	type iv struct{ s, e time.Time }
	var ivs []iv
	for _, c := range n.Children {
		s, e := c.Start, c.Start.Add(time.Duration(c.DurationNS))
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var covered time.Duration
	var curS, curE time.Time
	for i, v := range ivs {
		if i == 0 || v.s.After(curE) {
			covered += curE.Sub(curS)
			curS, curE = v.s, v.e
			continue
		}
		if v.e.After(curE) {
			curE = v.e
		}
	}
	covered += curE.Sub(curS)
	return time.Duration(n.DurationNS) - covered
}

// perJobUS is a span's mean self time per traced job, in µs.
func (a *traceAgg) perJobUS(name string) float64 {
	if a.jobs == 0 {
		return 0
	}
	return us(a.self[name]) / float64(a.jobs)
}
