package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// Poll schedule: after a 202, the client sleeps pollBase before its
// first poll and doubles the sleep after each pending poll, up to
// pollCap. The API offers only polling, so every client latency
// carries up to one sleep of slack past the job's finish; the traced
// run reports it as server.poll_slack_ms.
const (
	pollBase = 100 * time.Microsecond
	pollCap  = 2 * time.Millisecond
	// jobDeadline bounds one job's submit→terminal time; a job past it
	// is a failure.
	jobDeadline = 60 * time.Second
)

func pollDelay(k int) time.Duration {
	if k >= 5 {
		return pollCap
	}
	return min(pollBase<<k, pollCap)
}

// Wire shapes of the API's JSON (the fields the benchmark reads).
type valueJSON struct {
	Str string `json:"str"`
}

type releaseJSON struct {
	Key         *valueJSON `json:"key"`
	Value       float64    `json:"value"`
	Epsilon     float64    `json:"epsilon"`
	Sensitivity float64    `json:"sensitivity"`
	NoiseScale  float64    `json:"noise_scale"`
	Raw         float64    `json:"raw"`
	RawSet      bool       `json:"raw_set"`
}

type cameraBudgetJSON struct {
	Camera       string  `json:"camera"`
	EpsilonSpent float64 `json:"epsilon_spent"`
}

type resultJSON struct {
	Releases []releaseJSON      `json:"releases"`
	Cameras  []cameraBudgetJSON `json:"cameras"`
}

type jobJSON struct {
	ID          string      `json:"id"`
	State       string      `json:"state"`
	Error       string      `json:"error"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at"`
	FinishedAt  *time.Time  `json:"finished_at"`
	Result      *resultJSON `json:"result"`
}

// sample is one job as the client saw it.
type sample struct {
	j         *job
	id        string
	analyst   string
	lat       time.Duration // submit sent → terminal poll received
	end       time.Time     // when the terminal poll was received
	submitRTT time.Duration
	pollRTT   time.Duration // summed over polls
	polls     int
	refusals  int
	queueWait time.Duration // started_at − submitted_at
	run       time.Duration // finished_at − started_at
	server    time.Duration // finished_at − submitted_at
	failure   string        // "" when the outcome matched the plan
	trace     []byte
}

// client talks to one stack over HTTP.
type client struct {
	base string
	http *http.Client
}

func newClient(st *stack) *client {
	return &client{base: st.srv.URL, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) getJSON(path string, out any) error {
	status, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, out)
}

// runJob submits j as analyst, polls it to a terminal state on the
// fixed schedule and checks the outcome against the plan.
func (c *client) runJob(w *world, analyst string, j *job, fetchTrace bool) sample {
	s := sample{j: j, analyst: analyst}
	body, _ := json.Marshal(map[string]string{"analyst": analyst, "query": j.text})
	t0 := time.Now()
	for {
		t := time.Now()
		status, resp, err := c.do(http.MethodPost, "/v1/queries", body)
		s.submitRTT = time.Since(t)
		if err != nil {
			s.failure = fmt.Sprintf("submit: %v", err)
			return s
		}
		if status == http.StatusAccepted {
			var jj jobJSON
			if err := json.Unmarshal(resp, &jj); err != nil {
				s.failure = fmt.Sprintf("submit: decode: %v", err)
				return s
			}
			s.id = jj.ID
			break
		}
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			s.failure = fmt.Sprintf("submit: status %d: %s", status, resp)
			return s
		}
		// A refusal: the analyst retries, and the job counts as failed.
		s.refusals++
		if time.Since(t0) > jobDeadline {
			s.failure = "submit: refused until deadline"
			return s
		}
		time.Sleep(time.Millisecond)
	}
	var jj jobJSON
	for k := 0; ; k++ {
		time.Sleep(pollDelay(k))
		t := time.Now()
		status, resp, err := c.do(http.MethodGet, "/v1/queries/"+s.id, nil)
		s.pollRTT += time.Since(t)
		s.polls++
		if err != nil || status != http.StatusOK {
			s.failure = fmt.Sprintf("poll %s: status %d: %v", s.id, status, err)
			return s
		}
		jj = jobJSON{}
		if err := json.Unmarshal(resp, &jj); err != nil {
			s.failure = fmt.Sprintf("poll %s: decode: %v", s.id, err)
			return s
		}
		if jj.State == "done" || jj.State == "failed" {
			break
		}
		if time.Since(t0) > jobDeadline {
			s.failure = fmt.Sprintf("job %s still %s after %v", s.id, jj.State, jobDeadline)
			return s
		}
	}
	s.end = time.Now()
	s.lat = s.end.Sub(t0)
	if jj.StartedAt != nil && jj.FinishedAt != nil {
		s.queueWait = jj.StartedAt.Sub(jj.SubmittedAt)
		s.run = jj.FinishedAt.Sub(*jj.StartedAt)
		s.server = jj.FinishedAt.Sub(jj.SubmittedAt)
	}
	if s.refusals > 0 {
		s.failure = fmt.Sprintf("refused %d times", s.refusals)
	} else {
		s.failure = verify(w, j, &jj)
	}
	if fetchTrace {
		status, tr, err := c.do(http.MethodGet, "/v1/queries/"+s.id+"/trace", nil)
		if err == nil && status == http.StatusOK {
			s.trace = tr
		}
	}
	return s
}

// noiseScales bounds |noised − raw| in Laplace scales: P(|X| > 50b) =
// e^-50, so a violation is a defect, not bad luck.
const noiseScales = 50

// verify compares a terminal job with its plan: the planned denial, or
// every release's raw value against the fleet's ground truth, its
// sensitivity and noise scale against trusted metadata, its noise
// against the Laplace envelope, and each camera's charge against the
// planned ε. It returns "" when everything matches.
func verify(w *world, j *job, jj *jobJSON) string {
	if j.wantDenied {
		if jj.State != "failed" || !strings.Contains(jj.Error, "budget exhausted") {
			return fmt.Sprintf("planned denial ended %s %q", jj.State, jj.Error)
		}
		return ""
	}
	if jj.State != "done" || jj.Result == nil {
		return fmt.Sprintf("ended %s: %s", jj.State, jj.Error)
	}
	rels := jj.Result.Releases
	if len(rels) != len(j.want) {
		return fmt.Sprintf("%d releases, want %d", len(rels), len(j.want))
	}
	byKey := map[string]releaseJSON{}
	for _, r := range rels {
		k := ""
		if r.Key != nil {
			k = r.Key.Str
		}
		byKey[k] = r
	}
	for _, want := range j.want {
		r, ok := byKey[want.key]
		switch {
		case !ok:
			return fmt.Sprintf("release %q missing", want.key)
		case !r.RawSet || !near(r.Raw, want.raw):
			return fmt.Sprintf("release %q raw %v, ground truth %v", want.key, r.Raw, want.raw)
		case !near(r.Sensitivity, want.sens):
			return fmt.Sprintf("release %q sensitivity %v, want %v", want.key, r.Sensitivity, want.sens)
		case r.Epsilon != j.eps:
			return fmt.Sprintf("release %q epsilon %v, want %v", want.key, r.Epsilon, j.eps)
		case !near(r.NoiseScale, want.sens/j.eps):
			return fmt.Sprintf("release %q noise scale %v, want %v", want.key, r.NoiseScale, want.sens/j.eps)
		case math.Abs(r.Value-r.Raw) > noiseScales*r.NoiseScale:
			return fmt.Sprintf("release %q noise %v beyond %d scales of %v", want.key, r.Value-r.Raw, noiseScales, r.NoiseScale)
		}
	}
	if len(jj.Result.Cameras) != len(j.win.cams) {
		return fmt.Sprintf("%d cameras charged, want %d", len(jj.Result.Cameras), len(j.win.cams))
	}
	for _, cb := range jj.Result.Cameras {
		if !planCharges(w, j, cb.Camera) || cb.EpsilonSpent != j.eps {
			return fmt.Sprintf("camera %s charged %v, want %v", cb.Camera, cb.EpsilonSpent, j.eps)
		}
	}
	return ""
}

// planCharges reports whether the plan charges camera name.
func planCharges(w *world, j *job, name string) bool {
	for _, c := range j.win.cams {
		if w.f.Cams[c].Name == name {
			return true
		}
	}
	return false
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
