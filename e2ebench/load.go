package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtm/internal/sched"
	"rtm/internal/spec"
)

// callers is the closed loop's connection count: each caller waits
// for its verdict before it posts the next spec.
const callers = 2

// answer is one request's outcome as the client saw it.
type answer struct {
	req     request
	status  int
	body    []byte
	err     error
	latency time.Duration
	done    time.Time
}

// verdict is the part of a /schedule response the checks read.
type verdict struct {
	Fingerprint string   `json:"fingerprint"`
	OrderDigest string   `json:"orderDigest"`
	Decided     bool     `json:"decided"`
	Feasible    bool     `json:"feasible"`
	Source      string   `json:"source"`
	Schedule    []string `json:"schedule"`
	ElapsedUS   int64    `json:"elapsedMicros"`
}

// newClient returns an HTTP client that keeps one connection open.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// spanHeader carries the traced run's request span ID to the
// in-process daemon.
const spanHeader = "X-E2ebench-Span"

// post sends one spec to /schedule; a nonzero span ID rides along in
// spanHeader.
func post(c *http.Client, base string, r request, span int64) answer {
	a := answer{req: r}
	hr, err := http.NewRequest(http.MethodPost, base+"/schedule", bytes.NewReader(r.body))
	if err != nil {
		a.err = err
		return a
	}
	if span != 0 {
		hr.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	t0 := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		a.err = err
		a.latency = time.Since(t0)
		return a
	}
	a.body, a.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	a.latency = a.done.Sub(t0)
	a.status = resp.StatusCode
	return a
}

// sender sends one request over a caller's connection.
type sender func(c *http.Client, r request) answer

// plainSender posts to base without tracing.
func plainSender(base string) sender {
	return func(c *http.Client, r request) answer { return post(c, base, r, 0) }
}

// closedLoop runs the timed phase: callers send reqs in order (cycling
// when cyclic) until d has passed, or until a non-cyclic sequence runs
// out, which the second result reports.
func closedLoop(reqs []request, cyclic bool, d time.Duration, send sender) ([]answer, time.Duration, bool) {
	var next atomic.Int64
	var exhausted atomic.Bool
	per := make([][]answer, callers)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) && !cyclic {
					exhausted.Store(true)
					return
				}
				per[c] = append(per[c], send(cl, reqs[i%len(reqs)]))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []answer
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall, exhausted.Load()
}

// sendAll sends reqs one at a time (the warm pass).
func sendAll(reqs []request, send sender) []answer {
	cl := newClient()
	defer cl.CloseIdleConnections()
	out := make([]answer, len(reqs))
	for i, r := range reqs {
		out[i] = send(cl, r)
	}
	return out
}

// checked is the outcome of the output checks over a set of answers.
type checked struct {
	correct  int        // 200 answers with a right verdict
	decided  int        // of those, decided verdicts
	verdicts []*verdict // parsed verdict per answer (nil on a miss)
	wrong    []string   // the first few wrong answers, for the error report
	wrongN   int
}

// checker verifies answers against the requests that produced them:
// returned schedules pass sched.Check on the spec the client sent,
// each class keeps one verdict and one fingerprint across repeats and
// renamings, no two classes share a fingerprint, and known-truth
// classes get their constructed verdict.
// It is reused across the warm pass and the timed phase of one daemon
// life, so consistency spans both.
type checker struct {
	classes  []*class
	byClass  map[int]*verdict
	fps      map[string]int    // fingerprint → class
	verified map[[32]byte]bool // (spec, schedule) pairs already checked
}

func newChecker(in *inputs) *checker {
	return &checker{classes: in.classes, byClass: map[int]*verdict{}, fps: map[string]int{}, verified: map[[32]byte]bool{}}
}

func (ck *checker) check(answers []answer) checked {
	var out checked
	out.verdicts = make([]*verdict, len(answers))
	for i, a := range answers {
		v, err := ck.one(a)
		if err != nil {
			if a.err == nil && a.status == http.StatusOK {
				out.wrongN++
				if len(out.wrong) < 5 {
					out.wrong = append(out.wrong, err.Error())
				}
			}
			continue
		}
		out.verdicts[i] = v
		out.correct++
		if v.Decided {
			out.decided++
		}
	}
	return out
}

// one checks a single answer; any error makes it a miss.
func (ck *checker) one(a answer) (*verdict, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", a.status, strings.TrimSpace(string(a.body)))
	}
	v := &verdict{}
	if err := json.Unmarshal(a.body, v); err != nil {
		return nil, fmt.Errorf("bad response JSON: %w", err)
	}
	cl := ck.classes[a.req.class]
	name := fmt.Sprintf("class %d (%s)", a.req.class, cl.family)
	switch {
	case v.Feasible && !v.Decided:
		return nil, fmt.Errorf("%s: feasible but undecided", name)
	case cl.truth == truthFeasible && !(v.Decided && v.Feasible):
		return nil, fmt.Errorf("%s: feasible by construction, answered decided=%v feasible=%v", name, v.Decided, v.Feasible)
	case cl.truth == truthInfeasible && !(v.Decided && !v.Feasible):
		return nil, fmt.Errorf("%s: over-utilized by construction, answered decided=%v feasible=%v", name, v.Decided, v.Feasible)
	}
	// distinct classes must get distinct fingerprints; an undecided
	// verdict is never cached, so a later request may decide it, but a
	// decided verdict never changes
	prev, seen := ck.byClass[a.req.class]
	switch {
	case !seen:
		if other, dup := ck.fps[v.Fingerprint]; dup {
			return nil, fmt.Errorf("%s: fingerprint %s already answered for class %d", name, v.Fingerprint, other)
		}
		ck.fps[v.Fingerprint] = a.req.class
	case prev.Fingerprint != v.Fingerprint:
		return nil, fmt.Errorf("%s: fingerprint %s, earlier %s", name, v.Fingerprint, prev.Fingerprint)
	case prev.Decided && v.Decided && prev.Feasible != v.Feasible:
		return nil, fmt.Errorf("%s: verdict feasible=%v, earlier %v", name, v.Feasible, prev.Feasible)
	}
	if !seen || !prev.Decided {
		ck.byClass[a.req.class] = v
	}
	if v.Feasible {
		h := sha256.New()
		h.Write(a.req.body)
		for _, s := range v.Schedule {
			h.Write([]byte{0})
			h.Write([]byte(s))
		}
		var key [32]byte
		copy(key[:], h.Sum(nil))
		if !ck.verified[key] {
			sp, err := spec.Parse(string(a.req.body))
			if err != nil {
				return nil, fmt.Errorf("%s: request does not parse: %w", name, err)
			}
			if rep := sched.Check(sp.Model, &sched.Schedule{Slots: v.Schedule}); !rep.Feasible {
				return nil, fmt.Errorf("%s: returned schedule fails sched.Check", name)
			}
			ck.verified[key] = true
		}
	}
	return v, nil
}
