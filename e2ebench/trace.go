package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
	"rtm/internal/sched"
	"rtm/internal/served"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// This file is the traced run. Layers are timed from outside, around
// calls into their public functions: the daemon's own mux is hosted
// in this process with rtserved's settings, a `request` span covers
// each client round trip, a `served.handler` span covers the mux's
// ServeHTTP, and child spans replay the calls the daemon made for
// that request — parse, canonicalize, store, analysis, heuristic,
// exact search, check — on the same input. Spans stay in memory and
// are written to a JSON-lines file when the run ends.

// span is one traced interval, in microseconds from the trace start.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  float64          `json:"start_us"`
	End    float64          `json:"end_us"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) us() float64 { return s.End - s.Start }

// tracer records spans in memory.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	handler sync.Map // request span ID → served.handler span ID
}

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// record adds a finished span.
func (t *tracer) record(id, parent int64, name string, start, end time.Time, attrs map[string]int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(end), Attrs: attrs})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timeit runs f inside a span.
func (t *tracer) timeit(parent int64, name string, f func() map[string]int64) {
	start := time.Now()
	attrs := f()
	t.record(t.nextID.Add(1), parent, name, start, time.Now(), attrs)
}

// wrap records a served.handler span around the mux's ServeHTTP,
// parented to the request span named in spanHeader. The span's ID is
// published before ServeHTTP writes the response, so the client finds
// it as soon as the answer arrives.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		root, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.nextID.Add(1)
		if err == nil {
			t.handler.Store(root, id)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(id, root, "served.handler", start, time.Now(), nil)
	})
}

// shadow is the in-process daemon of the traced run.
type shadow struct {
	dir     string
	st      *store.Store
	putDir  string
	put     *store.Store // receives replayed store.Put calls
	srv     *http.Server
	base    string
	openS   float64
	tr      *tracer
	surface sync.Map // fingerprint+digest already served → memo hit
}

// startShadow opens a fresh copy of the history and serves the daemon
// mux, built with rtserved's settings, on a loopback port.
func startShadow(cfg config, history string, tr *tracer) (*shadow, error) {
	sh := &shadow{tr: tr,
		dir:    filepath.Join(cfg.work, "runs", fmt.Sprintf("%d-shadow", os.Getpid())),
		putDir: filepath.Join(cfg.work, "runs", fmt.Sprintf("%d-put", os.Getpid())),
	}
	os.RemoveAll(sh.dir)
	os.RemoveAll(sh.putDir)
	if err := copyDir(history, sh.dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err := store.Open(sh.dir, store.Options{})
	if err != nil {
		return nil, err
	}
	sh.openS = time.Since(t0).Seconds()
	sh.st = st
	if sh.put, err = store.Open(sh.putDir, store.Options{}); err != nil {
		st.Close()
		return nil, err
	}
	// rtserved's defaults, and the flags of daemonFlags
	svc := service.New(service.Options{Exact: exact.Options{MaxCandidates: daemonMaxCand, Workers: daemonWorkers}, Store: st})
	d := served.New(served.Config{Service: svc, Timeout: 30 * time.Second, MaxBody: 1 << 20, RespCache: 1024})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sh.close()
		return nil, err
	}
	sh.base = "http://" + ln.Addr().String()
	sh.srv = &http.Server{Handler: tr.wrap(d.Mux())}
	go sh.srv.Serve(ln)
	return sh, nil
}

func (sh *shadow) close() {
	if sh.srv != nil {
		sh.srv.Close()
	}
	sh.st.Close()
	if sh.put != nil {
		sh.put.Close()
	}
	os.RemoveAll(sh.dir)
	os.RemoveAll(sh.putDir)
}

// send is the traced sender: a request span around the round trip,
// then replays of the layer calls the daemon made, as children of the
// request's served.handler span.
func (sh *shadow) send(c *http.Client, r request) answer {
	tr := sh.tr
	root := tr.nextID.Add(1)
	start := time.Now()
	a := post(c, sh.base, r, root)
	tr.record(root, 0, "request", start, time.Now(), nil)
	var v verdict
	if a.err != nil || a.status != http.StatusOK || json.Unmarshal(a.body, &v) != nil {
		return a
	}
	h, ok := tr.handler.Load(root)
	if !ok {
		return a
	}
	sh.replay(h.(int64), r, &v)
	return a
}

// replay re-runs, on the request's input, the layer calls the daemon
// made for it, as its verdict's source shows: every request parses
// and canonicalizes; an LRU miss probes the store; a pipeline runs
// analysis, then the heuristic, then the exact search until one
// decides, and writes a decided outcome through to the store; a
// feasible answer not served from the verified-hit memo is checked.
func (sh *shadow) replay(parent int64, r request, v *verdict) {
	tr := sh.tr
	var m *core.Model
	tr.timeit(parent, "spec.Parse", func() map[string]int64 {
		if sp, err := spec.Parse(string(r.body)); err == nil {
			m = sp.Model
		}
		return nil
	})
	if m == nil {
		return
	}
	tr.timeit(parent, "core.Canonicalize", func() map[string]int64 {
		core.Canonicalize(m).Fingerprint()
		return nil
	})
	pipeline := v.Source == "analysis" || v.Source == "heuristic" || v.Source == "exact"
	if v.Source != "cache" {
		tr.timeit(parent, "store.Get", func() map[string]int64 {
			sh.st.Get(v.Fingerprint)
			return nil
		})
	}
	if pipeline {
		tr.timeit(parent, "analysis.DecideFast", func() map[string]int64 {
			analysis.DecideFast(m)
			return nil
		})
	}
	if v.Source == "heuristic" || v.Source == "exact" {
		tr.timeit(parent, "heuristic.Schedule", func() map[string]int64 {
			heuristic.Schedule(m, heuristic.Options{MergeShared: true})
			return nil
		})
	}
	if v.Source == "exact" {
		tr.timeit(parent, "exact.FindScheduleCtx", func() map[string]int64 {
			ml := min(m.Hyperperiod(), 64)
			_, st, err := exact.FindScheduleCtx(context.Background(), m,
				exact.Options{MaxLen: ml, MaxCandidates: daemonMaxCand, Workers: daemonWorkers})
			if st == nil {
				return nil
			}
			return map[string]int64{
				"nodes": int64(st.NodesExplored), "candidates": int64(st.Candidates),
				"pruned":    int64(st.PrunedBySymmetry + st.PrunedByMemo + st.PrunedByBound),
				"undecided": b2i(errors.Is(err, exact.ErrBudget)),
			}
		})
	}
	if pipeline && v.Decided {
		if rec, ok := sh.st.Get(v.Fingerprint); ok {
			tr.timeit(parent, "store.Put", func() map[string]int64 {
				sh.put.Put(rec)
				return nil
			})
		}
	}
	if _, seen := sh.surface.LoadOrStore(v.Fingerprint+"/"+v.OrderDigest, true); v.Feasible && !(seen && v.Source == "cache") {
		tr.timeit(parent, "sched.Check", func() map[string]int64 {
			sched.Check(m, &sched.Schedule{Slots: v.Schedule})
			return nil
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// tracedRun sets up the in-process daemon, sends the warm pass and
// then the timed phase's inputs, as long as the untraced phase ran,
// with tracing on, and derives the per-layer metrics from the spans, the
// untraced phase's /metrics deltas and its gctrace log.
func tracedRun(cfg config, in *inputs, history string, tm *timed, setupCounts map[string]int64) (map[string]metric, map[string]any, error) {
	tr := &tracer{t0: time.Now()}
	sh, err := startShadow(cfg, history, tr)
	if err != nil {
		return nil, nil, err
	}
	defer sh.close()
	ck := newChecker(in)
	warm := sendAll(in.warm, sh.send)
	if c := ck.check(warm); c.correct != len(warm) {
		return nil, nil, fmt.Errorf("%w in the traced warm pass: %v", errWrong, c.wrong)
	}
	warmSpans := len(tr.snapshot())
	answers, wall, _ := closedLoop(in.timed, in.cyclic, cfg.phase(), sh.send)
	c := ck.check(answers)
	tracedE2E := summarize(answers, c, wall)
	spans := tr.snapshot()
	if err := writeSpans(cfg, spans); err != nil {
		return nil, nil, err
	}

	// the warm pass is sequential and fixed by the seed: its replayed
	// exact counts must equal the daemon's own, exactly
	var warmNodes, warmCands int64
	for _, s := range spans[:warmSpans] {
		if s.Name == "exact.FindScheduleCtx" {
			warmNodes += s.Attrs["nodes"]
			warmCands += s.Attrs["candidates"]
		}
	}
	if warmNodes != setupCounts["exact_nodes_total"] {
		return nil, nil, fmt.Errorf("benchmark fault: replayed warm-pass searches explored %d nodes, the daemon %d",
			warmNodes, setupCounts["exact_nodes_total"])
	}

	timedSpans := map[string][]span{}
	for _, s := range spans[warmSpans:] {
		timedSpans[s.Name] = append(timedSpans[s.Name], s)
	}
	allSpans := map[string][]span{}
	for _, s := range spans {
		allSpans[s.Name] = append(allSpans[s.Name], s)
	}
	// a layer's numbers come from the timed phase; a layer the timed
	// phase leaves idle is reported from the warm pass, where it ran
	layer := func(name string) []span {
		if s := timedSpans[name]; len(s) > 0 {
			return s
		}
		return allSpans[name]
	}
	usP := func(name string, q float64) float64 {
		var xs []float64
		for _, s := range layer(name) {
			xs = append(xs, s.us())
		}
		sort.Float64s(xs)
		return quantile(xs, q)
	}

	// served.self: the handler's time less the replayed layer calls it
	// contains, per request
	children := map[int64]float64{}
	for _, s := range spans[warmSpans:] {
		switch s.Name {
		case "request", "served.handler":
		default:
			children[s.Parent] += s.us()
		}
	}
	var self []float64
	for _, s := range timedSpans["served.handler"] {
		self = append(self, max(s.us()-children[s.ID], 0))
	}
	sort.Float64s(self)

	var svcUS []float64
	for i, v := range c.verdicts {
		if v != nil && answers[i].err == nil {
			svcUS = append(svcUS, float64(v.ElapsedUS))
		}
	}
	sort.Float64s(svcUS)

	var searches, undecided, nodes, pruned int64
	var searchMS []float64
	for _, s := range layer("exact.FindScheduleCtx") {
		searches++
		undecided += s.Attrs["undecided"]
		nodes += s.Attrs["nodes"]
		pruned += s.Attrs["pruned"]
		searchMS = append(searchMS, s.us()/1000)
	}
	sort.Float64s(searchMS)

	dl := tm.deltas
	// the tiers' shares come from the timed phase, or from the warm
	// pass when the timed phase ran no pipeline
	tiers := dl
	if tiers["cache_misses"] == 0 {
		tiers = setupCounts
	}
	pipelines := tiers["cache_misses"]
	analysisDecided := tiers["analysis_solved"] + tiers["analysis_refuted"]
	untraced := tm.e2e
	out := map[string]metric{
		"served.handler_us_p50":      {usP("served.handler", 0.5), "us"},
		"served.self_us_p50":         {quantile(self, 0.5), "us"},
		"spec.parse_us_p50":          {usP("spec.Parse", 0.5), "us"},
		"core.canon_us_p50":          {usP("core.Canonicalize", 0.5), "us"},
		"core.canon_us_p99":          {usP("core.Canonicalize", 0.99), "us"},
		"service.schedule_us_p50":    {quantile(svcUS, 0.5), "us"},
		"service.hit_frac":           {ratio(dl["cache_hits"], dl["requests"]), "ratio"},
		"service.memo_hit_frac":      {ratio(dl["memo_hits"], dl["requests"]), "ratio"},
		"service.queue_wait_ms_mean": {ratio(dl["queue_wait_ns_total"], dl["searches"]) / 1e6, "ms"},
		"sched.check_us_p50":         {usP("sched.Check", 0.5), "us"},
		"store.open_s":               {sh.openS, "s"},
		"store.get_us_p50":           {usP("store.Get", 0.5), "us"},
		"store.put_us_p50":           {usP("store.Put", 0.5), "us"},
		"store.puts":                 {float64(dl["store_puts"]), "count"},
		"analysis.decide_us_p50":     {usP("analysis.DecideFast", 0.5), "us"},
		"analysis.decided_frac":      {ratio(analysisDecided, pipelines), "ratio"},
		"heuristic.schedule_us_p50":  {usP("heuristic.Schedule", 0.5), "us"},
		"heuristic.solved_frac":      {ratio(tiers["heuristic_solved"], pipelines-analysisDecided), "ratio"},
		"exact.search_ms_p50":        {quantile(searchMS, 0.5), "ms"},
		"exact.search_ms_p99":        {quantile(searchMS, 0.99), "ms"},
		"exact.nodes":                {float64(warmNodes), "count"},
		"exact.candidates":           {float64(warmCands), "count"},
		"exact.pruned_frac":          {ratio(pruned, nodes+pruned), "ratio"},
		"exact.undecided_frac":       {ratio(undecided, searches), "ratio"},
		"runtime.alloc_kb_per_req":   {tm.allocMB * 1024 / float64(max(tm.attempted, 1)), "KB"},
		"runtime.gc_pause_ms_total":  {tm.gcPauseMS, "ms"},
		"trace.overhead_p50_frac":    {tracedE2E.P50/untraced.P50 - 1, "ratio"},
		"trace.overhead_rps_frac":    {1 - tracedE2E.RPS/untraced.RPS, "ratio"},
	}
	samples := map[string]int{}
	for name, s := range allSpans {
		samples[name] = len(s)
	}
	rep := map[string]any{
		"spans_per_layer":   samples,
		"timed_spans":       len(spans) - warmSpans,
		"traced_e2e":        tracedE2E,
		"untraced_e2e":      untraced,
		"searches_replayed": searches,
	}
	if c.wrongN > 0 {
		return out, rep, fmt.Errorf("%w in the traced phase: %v", errWrong, c.wrong)
	}
	return out, rep, nil
}

// writeSpans writes the spans as JSON lines under the work directory.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// gcLine matches a gctrace line: the three clock phases (the first
// and last are stop-the-world) and the heap sizes at start, end and
// live after the collection.
var gcLine = regexp.MustCompile(`gc \d+ @\S+ \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock, .*?, (\d+)->(\d+)->(\d+) MB`)

// parseGCTrace sums the stop-the-world pauses of the collections in
// log and estimates the bytes allocated between them: each collection
// starts at a heap size reached by allocating on top of the previous
// collection's live heap.
func parseGCTrace(log string) (pauseMS, allocMB float64) {
	prevLive := -1.0
	for _, m := range gcLine.FindAllStringSubmatch(log, -1) {
		p1, _ := strconv.ParseFloat(m[1], 64)
		p2, _ := strconv.ParseFloat(m[2], 64)
		start, _ := strconv.ParseFloat(m[3], 64)
		live, _ := strconv.ParseFloat(m[5], 64)
		pauseMS += p1 + p2
		if prevLive >= 0 && start > prevLive {
			allocMB += start - prevLive
		}
		prevLive = live
	}
	return pauseMS, allocMB
}
