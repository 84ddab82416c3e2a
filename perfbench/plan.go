package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"privid/internal/sim"
)

// selKind is the SELECT a generated query ends with.
type selKind int

const (
	selCount selKind = iota // COUNT(*): pushdown-eligible
	selAvg                  // AVG(range(id, 0, sumHi)): materialized
)

// pushdown reports whether the engine plans the SELECT as mergeable
// per-chunk states; AVG declines to the materialized path.
func (k selKind) pushdown() bool { return k != selAvg }

// sumHi is the declared range of the id column in AVG queries.
const sumHi = 64

// world is a workload's generated fleet plus the trusted metadata the
// plan needs: chunk sizes' PRODUCING caps, the camera policy and the
// per-camera budget.
type world struct {
	f       *sim.Fleet
	rho     time.Duration
	epsilon float64
	maxRows map[int]int // chunk seconds → PRODUCING cap
}

func newWorld(cfg sim.FleetConfig, rho time.Duration, epsilon float64, chunkSecs ...int) *world {
	w := &world{f: sim.NewFleet(cfg), rho: rho, epsilon: epsilon, maxRows: map[int]int{}}
	for _, cs := range chunkSecs {
		w.maxRows[cs] = w.f.MaxRowsPerChunk(cs)
	}
	return w
}

// window is one query's SPLIT: cameras (fleet indices), a minute range
// of the stream and the chunk length.
type window struct {
	cams             []int
	beginMin, endMin int
	chunkSec         int
}

// wantRelease is one release the engine must serve: its group key
// ("" for whole-table aggregates), pre-noise value and sensitivity.
type wantRelease struct {
	key  string
	raw  float64
	sens float64
}

// job is one generated query with its expected outcome. Jobs are the
// only thing the program receives; everything the correctness check
// compares against is computed here, from the fleet's closed-form
// ground truth and the cameras' trusted metadata.
type job struct {
	text       string
	win        window
	kind       selKind
	eps        float64
	wantDenied bool
	want       []wantRelease
	// shared marks cold_ingest windows both clients request at once.
	shared bool
}

// encode renders the job canonically for the seed self-test.
func (j *job) encode(b *strings.Builder) {
	fmt.Fprintf(b, "%s|%v|%d|%t|%t", j.text, j.win, j.kind, j.wantDenied, j.shared)
	for _, r := range j.want {
		fmt.Fprintf(b, "|%s=%s/%s", r.key, fmtNum(r.raw), fmtNum(r.sens))
	}
	b.WriteByte('\n')
}

// fmtNum renders a float exactly (shortest round-trip form, never an
// exponent), so CONSUMING amounts reach the engine bit-for-bit.
func fmtNum(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// tsLiteral renders a minute offset from the stream start as a query
// timestamp literal (MM-DD-YYYY/H:MMam).
func tsLiteral(start time.Time, minOffset int) string {
	ts := start.Add(time.Duration(minOffset) * time.Minute)
	hour := ts.Hour() % 12
	if hour == 0 {
		hour = 12
	}
	ampm := "am"
	if ts.Hour() >= 12 {
		ampm = "pm"
	}
	return fmt.Sprintf("%02d-%02d-%d/%d:%02d%s",
		int(ts.Month()), ts.Day(), ts.Year(), hour, ts.Minute(), ampm)
}

// newJob renders the query text for (win, kind, eps) and derives its
// expected releases.
func (w *world) newJob(win window, kind selKind, eps float64, wantDenied bool) *job {
	names := make([]string, len(win.cams))
	for i, c := range win.cams {
		names[i] = w.f.Cams[c].Name
	}
	var sel string
	switch kind {
	case selCount:
		sel = "SELECT COUNT(*) FROM t"
	case selAvg:
		sel = fmt.Sprintf("SELECT AVG(range(id, 0, %d)) FROM t", sumHi)
	}
	text := fmt.Sprintf(`SPLIT %s BEGIN %s END %s BY TIME %dsec STRIDE 0sec INTO chunks;
PROCESS chunks USING %s TIMEOUT 5sec PRODUCING %d ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
%s CONSUMING %s;`,
		strings.Join(names, ", "), tsLiteral(w.f.Start, win.beginMin), tsLiteral(w.f.Start, win.endMin),
		win.chunkSec, execName, w.maxRows[win.chunkSec], sel, fmtNum(eps))
	j := &job{text: text, win: win, kind: kind, eps: eps, wantDenied: wantDenied}
	if !wantDenied {
		j.want = w.expect(win, kind)
	}
	return j
}

// delta is ΔP of one camera's table in this window (Eq. 6.2):
// max_rows · K · (1 + ⌈ρ / chunk⌉), from trusted metadata only.
func (w *world) delta(chunkSec int) float64 {
	fps := float64(w.f.Cfg.FPS)
	rhoF := math.Ceil(w.rho.Seconds() * fps)
	chunkF := float64(chunkSec) * fps
	return float64(w.maxRows[chunkSec]) * (1 + math.Ceil(rhoF/chunkF))
}

// expect derives the releases of (win, kind) from the fleet's
// closed-form ground truth.
func (w *world) expect(win window, kind selKind) []wantRelease {
	delta := w.delta(win.chunkSec)
	var count, sum, size, sens float64
	for _, c := range win.cams {
		n, s := w.objStats(c, win)
		count += n
		sum += s
		sens += delta
		fps := w.f.Cfg.FPS
		frames := int64(win.endMin-win.beginMin) * 60 * int64(fps)
		chunkF := int64(win.chunkSec * fps)
		size += float64((frames+chunkF-1)/chunkF) * float64(w.maxRows[win.chunkSec])
	}
	if kind == selCount {
		return []wantRelease{{raw: count, sens: sens}}
	}
	mean := 0.0
	if count > 0 {
		mean = sum / count
	}
	return []wantRelease{{raw: mean, sens: sens * sumHi / size}}
}

// objStats returns camera ci's (object, chunk) incidence count in the
// window — sim.Fleet.ObjChunks, the fleet's closed-form oracle — and
// the sum of the objects' ids clamped to [0, sumHi] over the same
// incidences, which SUM and AVG release. The sum is derived from the
// same event list; its incidence count must agree with the oracle.
func (w *world) objStats(ci int, win window) (count, sum float64) {
	count = w.f.ObjChunks(ci, win.beginMin, win.endMin, win.chunkSec)
	fps := int64(w.f.Cfg.FPS)
	beginF := int64(win.beginMin) * 60 * fps
	endF := int64(win.endMin) * 60 * fps
	if endF > w.f.Frames {
		endF = w.f.Frames
	}
	chunkF := int64(win.chunkSec) * fps
	if endF <= beginF {
		return count, 0
	}
	limit := beginF + (endF-beginF+chunkF-1)/chunkF*chunkF
	evs := w.f.Cams[ci].Events
	// Events are Enter-sorted and dwell at most 45 s (sim's cap).
	lo := sort.Search(len(evs), func(k int) bool { return evs[k].Enter >= beginF-46*fps })
	var n int64
	for _, ev := range evs[lo:] {
		if ev.Enter >= limit {
			break
		}
		s, e := max(ev.Enter, beginF), min(ev.Exit, limit)
		if e <= s {
			continue
		}
		k := (e-1-beginF)/chunkF - (s-beginF)/chunkF + 1
		n += k
		sum += float64(k) * math.Min(math.Max(float64(ev.ID), 0), sumHi)
	}
	if float64(n) != count {
		panic(fmt.Sprintf("perfbench: incidence count %d disagrees with sim oracle %v on %s", n, count, w.f.Cams[ci].Name))
	}
	return count, sum
}

// jobSource hands each client its next job. It returns nil when the
// workload has no more input; stop is closed when the timed window
// ends.
type jobSource interface {
	next(client int, stop <-chan struct{}) *job
}
