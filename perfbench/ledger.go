package main

import (
	"fmt"
	"sort"
	"sync"
)

// acked is the budget the clients know was spent: every admitted
// job's planned charge, per camera, over its query window. After the
// run the engine's per-frame remaining budget must equal ε minus it.
type acked struct {
	mu      sync.Mutex
	charges map[int][][3]float64 // camera → {startFrame, endFrame, eps}
	jobs    int                  // admitted jobs
	denials int                  // planned denials served
	eps     float64              // ε charged, summed over releases
}

func newAcked() *acked { return &acked{charges: map[int][][3]float64{}} }

func (a *acked) add(w *world, s sample) {
	if s.failure != "" || s.id == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.j.wantDenied {
		a.denials++
		return
	}
	a.jobs++
	a.eps += s.j.eps * float64(len(s.j.want))
	// Each camera is charged over the query window on its frame clock.
	fpm := float64(60 * w.f.Cfg.FPS)
	b, e := float64(s.j.win.beginMin)*fpm, float64(s.j.win.endMin)*fpm
	for _, c := range s.j.win.cams {
		a.charges[c] = append(a.charges[c], [3]float64{b, e, s.j.eps})
	}
}

// maxLedgerProbes bounds the frames checked per camera.
const maxLedgerProbes = 64

// checkLedger compares every camera's remaining budget, over HTTP, at
// a frame inside each constant stretch of the acked spend curve (and
// at the stream's first and last frame) with ε − acked. It returns the
// violations.
func (a *acked) checkLedger(w *world, c *client) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var bad []string
	for ci, cam := range w.f.Cams {
		type edge struct {
			frame int64
			d     float64
		}
		var edges []edge
		for _, ch := range a.charges[ci] {
			edges = append(edges, edge{int64(ch[0]), ch[2]}, edge{int64(ch[1]), -ch[2]})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].frame < edges[j].frame })
		type probe struct {
			frame int64
			spent float64
		}
		probes := []probe{{0, 0}, {w.f.Frames - 1, 0}}
		spent := 0.0
		for i := 0; i < len(edges); {
			f := edges[i].frame
			for ; i < len(edges) && edges[i].frame == f; i++ {
				spent += edges[i].d
			}
			next := w.f.Frames
			if i < len(edges) {
				next = edges[i].frame
			}
			if next > f {
				probes = append(probes, probe{(f + next - 1) / 2, spent})
			}
		}
		if len(probes) > maxLedgerProbes {
			step := float64(len(probes)) / maxLedgerProbes
			var kept []probe
			for k := 0; k < maxLedgerProbes; k++ {
				kept = append(kept, probes[int(float64(k)*step)])
			}
			probes = kept
		}
		for _, p := range probes {
			if p.frame == 0 || p.frame == w.f.Frames-1 {
				p.spent = spentAt(a.charges[ci], p.frame)
			}
			var out struct {
				Remaining float64 `json:"remaining"`
			}
			if err := c.getJSON(fmt.Sprintf("/v1/cameras/%s/budget?frame=%d", cam.Name, p.frame), &out); err != nil {
				bad = append(bad, err.Error())
				continue
			}
			if want := w.epsilon - p.spent; !near(out.Remaining, want) {
				bad = append(bad, fmt.Sprintf("ledger: %s frame %d remaining %v, want ε − acked = %v",
					cam.Name, p.frame, out.Remaining, want))
			}
		}
	}
	return bad
}

func spentAt(charges [][3]float64, frame int64) float64 {
	s := 0.0
	for _, ch := range charges {
		if float64(frame) >= ch[0] && float64(frame) < ch[1] {
			s += ch[2]
		}
	}
	return s
}

// auditEntry is the part of a /v1/audit entry the check reads.
type auditEntry struct {
	EpsilonSpent float64 `json:"epsilon_spent"`
	Denied       bool    `json:"denied"`
}

// auditTotals sums the audit log: denied entries, granted entries and
// the ε the granted ones charged.
func auditTotals(c *client) (denied, granted int, eps float64, err error) {
	var log []auditEntry
	if err := c.getJSON("/v1/audit", &log); err != nil {
		return 0, 0, 0, err
	}
	for _, e := range log {
		if e.Denied {
			denied++
			continue
		}
		granted++
		eps += e.EpsilonSpent
	}
	return denied, granted, eps, nil
}

// checkAudit compares the audit log with the acked jobs: one granted
// entry per admitted job carrying its ε, one denied entry per planned
// denial.
func (a *acked) checkAudit(c *client) []string {
	denied, granted, eps, err := auditTotals(c)
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	a.mu.Lock()
	defer a.mu.Unlock()
	if denied != a.denials {
		bad = append(bad, fmt.Sprintf("audit: %d denials, plan has %d", denied, a.denials))
	}
	if granted != a.jobs || !near(eps, a.eps) {
		bad = append(bad, fmt.Sprintf("audit: %d grants of ε %v, acked %d of ε %v", granted, eps, a.jobs, a.eps))
	}
	return bad
}
