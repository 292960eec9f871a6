// Command e2ebench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and cmd/rtserved); it starts the
// real rtserved binary in its own process over a copy of a
// pre-populated store, drives one named workload against it over HTTP
// from a closed loop of two callers, checks every answer, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as the last line of standard output. NOTE.md explains the workloads
// and the metrics.
//
// Usage:
//
//	bash e2ebench/run.sh --workload hot_repeat|iso_mix|cold_search \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rtm/internal/exact"
	"rtm/internal/service"
	"rtm/internal/store"
)

const (
	// setups is how many times each run sets the daemon up from
	// the start; setup_s is their median, and their counts must agree.
	setups = 5
	// historySize is the record count of the pre-populated store.
	historySize = 20000
	// historyVersion names the cached history; bump it whenever
	// genHistory changes.
	historyVersion = "v1"
	// maxRate bounds the requests a non-cyclic workload pre-generates
	// per measured second.
	maxRate = 1200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rtserved string // daemon binary
	work     string // build and work directory inside the checkout
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "hot_repeat, iso_mix or cold_search")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.rtserved, "rtserved", ".bench_build/rtserved", "rtserved binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "build and work directory")
	cal := flag.Bool("calibrate", false, "print the cold_search class table (coldtable.go) and exit")
	flag.Parse()
	if *cal {
		calibrate()
		return
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if res != nil {
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// phase is the length of a timed phase. A traced run makes two, one
// untraced and one traced, of half --seconds each.
func (cfg config) phase() time.Duration {
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		d /= 2
	}
	return d
}

// errWrong marks a run whose answers failed the output checks.
var errWrong = errors.New("wrong answers")

// life is one daemon from exec to the end of its warm pass.
type life struct {
	d      *daemon
	dir    string
	setup  time.Duration
	counts map[string]int64
	ck     *checker
}

// setUp copies the history, starts the daemon, waits for /healthz and
// sends the workload's warm pass, checked by ck (a new checker when
// nil). Every warm answer must be correct, every pool class decided,
// and the daemon's deterministic counts must equal first (unless nil).
func setUp(cfg config, in *inputs, history string, i int, ck *checker, first map[string]int64) (*life, error) {
	dir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%d-%d", os.Getpid(), i))
	os.RemoveAll(dir)
	if err := copyDir(history, dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.rtserved, dir, cfg.trace)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(60 * time.Second); err != nil {
		return nil, err
	}
	warm := sendAll(in.warm, plainSender(d.base))
	setup := time.Since(t0)
	if ck == nil {
		ck = newChecker(in)
	}
	l := &life{d: d, dir: dir, setup: setup, ck: ck}
	c := l.ck.check(warm)
	if c.correct != len(warm) {
		l.close()
		return nil, fmt.Errorf("%w in the warm pass: %d of %d correct; %v", errWrong, c.correct, len(warm), c.wrong)
	}
	if cfg.workload != "cold_search" && c.decided != len(warm) {
		l.close()
		return nil, fmt.Errorf("warm pool has %d undecided classes; undecided classes are never cached", len(warm)-c.decided)
	}
	if l.counts, err = d.metrics(context.Background()); err != nil {
		l.close()
		return nil, err
	}
	for _, k := range deterministicCounts {
		if first != nil && l.counts[k] != first[k] {
			l.close()
			return nil, fmt.Errorf("benchmark fault: set-up %d counted %s=%d, set-up 0 counted %d",
				i, k, l.counts[k], first[k])
		}
	}
	return l, nil
}

// close stops the daemon and removes its store copy; it is safe to
// call twice.
func (l *life) close() {
	if l == nil || l.d == nil {
		return
	}
	l.d.stop()
	l.d = nil
	os.RemoveAll(l.dir)
}

// deterministicCounts are the /metrics counters a set-up must
// reproduce exactly: the warm pass is sequential and every search
// runs on one worker under a candidate budget.
var deterministicCounts = []string{
	"store_len", "requests", "cache_misses", "searches", "exact_nodes_total",
	"exact_solved", "exact_refuted", "undecided", "analysis_solved",
	"analysis_refuted", "heuristic_solved", "store_puts", "memo_snapshot_puts",
}

func run(cfg config) (*result, error) {
	env := startEnv(cfg)
	history := filepath.Join(cfg.work, "history-"+historyVersion)
	if err := ensureHistory(history); err != nil {
		return nil, fmt.Errorf("build the store history: %w", err)
	}
	in, err := genInputs(cfg.workload, cfg.seed, maxRate*cfg.seconds)
	if err != nil {
		return nil, err
	}

	var first map[string]int64
	var setupTimes []float64
	var l *life
	for i := 0; i < setups; i++ {
		if l != nil {
			l.close()
		}
		if l, err = setUp(cfg, in, history, i, nil, first); err != nil {
			return nil, err
		}
		if i == 0 {
			first = l.counts
		}
		setupTimes = append(setupTimes, l.setup.Seconds())
	}

	tm, err := timedPhase(cfg, in, history, l, first)
	if err != nil && !errors.Is(err, errWrong) {
		return nil, err
	}
	env.finish()
	report := map[string]any{
		"env":        env,
		"setup_s":    setupTimes,
		"setup":      pick(first, deterministicCounts),
		"timed":      tm.report,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"warm_count": len(in.warm),
	}
	res := &result{Correct: err == nil, Attempted: tm.attempted, Failed: tm.attempted - tm.correct}
	if !cfg.trace {
		res.Metrics = tm.metrics
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	} else {
		lm, lrep, terr := tracedRun(cfg, in, history, tm, first)
		report["layers"] = lrep
		if terr != nil && !errors.Is(terr, errWrong) {
			return nil, terr
		}
		if terr != nil {
			err = terr
		}
		res.Correct = err == nil
		res.Metrics = lm
	}
	b, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(b))
	return res, err
}

// timed is the outcome of one timed phase.
type timed struct {
	attempted, correct int
	metrics            map[string]metric
	report             map[string]any
	e2e                e2e
	deltas             map[string]int64 // /metrics deltas over the phase
	gcPauseMS, allocMB float64          // from gctrace, when enabled
}

// round is one daemon life's share of a timed phase.
type round struct {
	answers   []answer
	c         checked
	wall, cpu time.Duration
	exhausted bool
	deltas    map[string]int64
	hwm       float64 // VmHWM at the end, MB
	gcPauseMS float64
	allocMB   float64
}

// measure runs the closed loop against a ready daemon for at most d.
func measure(cfg config, l *life, in *inputs, d time.Duration) (*round, error) {
	ctx := context.Background()
	m0, err := l.d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := l.d.cpuTime()
	if err != nil {
		return nil, err
	}
	gcMark := len(l.d.stderr.String())
	r := &round{deltas: map[string]int64{}}
	r.answers, r.wall, r.exhausted = closedLoop(in.timed, in.cyclic, d, plainSender(l.d.base))
	cpu1, err := l.d.cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	m1, err := l.d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	for k, v := range m1 {
		r.deltas[k] = v - m0[k]
	}
	if r.hwm, err = l.d.statusMB("VmHWM"); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.gcPauseMS, r.allocMB = parseGCTrace(l.d.stderr.String()[gcMark:])
	}
	r.c = l.ck.check(r.answers)
	return r, nil
}

// timedPhase runs the closed loop for cfg.phase() and derives the
// end-to-end metrics. When a workload's sequence runs out first, it is
// sent again to a fresh daemon (set up again, off the clock): rounds
// of fixed work until the phase is over. It closes l.
func timedPhase(cfg config, in *inputs, history string, l *life, first map[string]int64) (*timed, error) {
	defer func() { l.close() }()
	var rounds []*round
	var answers []answer
	var all checked
	var wall, cpu time.Duration
	var hwm []float64
	tm := &timed{deltas: map[string]int64{}}
	for left := cfg.phase(); ; {
		r, err := measure(cfg, l, in, left)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		answers = append(answers, r.answers...)
		all.verdicts = append(all.verdicts, r.c.verdicts...)
		all.correct += r.c.correct
		all.decided += r.c.decided
		all.wrongN += r.c.wrongN
		all.wrong = append(all.wrong, r.c.wrong...)
		wall += r.wall
		cpu += r.cpu
		hwm = append(hwm, r.hwm)
		tm.gcPauseMS += r.gcPauseMS
		tm.allocMB += r.allocMB
		for k, v := range r.deltas {
			tm.deltas[k] += v
		}
		if left -= r.wall; !r.exhausted || left <= 0 {
			break
		}
		ck := l.ck
		l.close()
		if l, err = setUp(cfg, in, history, setups+len(rounds)-1, ck, first); err != nil {
			return nil, err
		}
	}
	tm.attempted, tm.correct = len(answers), all.correct
	tm.e2e = summarize(answers, all, wall)
	tm.metrics = map[string]metric{
		"throughput_rps":  {tm.e2e.RPS, "req/s"},
		"latency_p50_ms":  {tm.e2e.P50, "ms"},
		"latency_tail_ms": {tm.e2e.Tail, "ms"},
		"success_frac":    {ratio(all.correct, len(answers)), "ratio"},
		"decided_frac":    {ratio(all.decided, all.correct), "ratio"},
		"cpu_ms_per_req":  {cpu.Seconds() * 1000 / float64(max(len(answers), 1)), "ms"},
		"peak_rss_mb":     {median(hwm), "MB"},
	}
	tm.report = map[string]any{
		"rounds":       len(rounds),
		"wall_s":       wall.Seconds(),
		"e2e":          tm.e2e,
		"peak_rss_mb":  hwm,
		"wrong":        all.wrong,
		"wrong_count":  all.wrongN,
		"server_delta": pick(tm.deltas, []string{"requests", "cache_hits", "memo_hits", "store_hits", "cache_misses", "searches", "exact_nodes_total", "undecided", "store_puts", "evictions", "overloaded"}),
	}
	if all.wrongN > 0 || all.correct == 0 {
		return tm, fmt.Errorf("%w: %d of %d answers wrong; first: %v", errWrong, all.wrongN, len(answers), all.wrong)
	}
	return tm, nil
}

// e2e summarizes the correct answers of a closed-loop phase.
type e2e struct {
	RPS     float64            `json:"rps"`
	P50     float64            `json:"p50_ms"`
	Tail    float64            `json:"tail_ms"`
	TailPct float64            `json:"tail_pct"`
	Samples int                `json:"samples"`
	Ladder  map[string]float64 `json:"latency_ms"`
	PerSec  []int              `json:"done_per_second"` // correct answers by second of the phase
}

func summarize(answers []answer, c checked, wall time.Duration) e2e {
	var lats []float64
	var perSec []int
	var t0 time.Time
	for i, a := range answers {
		if i == 0 || a.done.Before(t0) {
			t0 = a.done.Add(-a.latency)
		}
	}
	for i, a := range answers {
		if c.verdicts[i] != nil {
			lats = append(lats, a.latency.Seconds()*1000)
			sec := int(a.done.Sub(t0) / time.Second)
			for len(perSec) <= sec {
				perSec = append(perSec, 0)
			}
			perSec[sec]++
		}
	}
	sort.Float64s(lats)
	tail, tailP := tailPercentile(lats)
	return e2e{RPS: float64(c.correct) / wall.Seconds(), P50: quantile(lats, 0.5), Tail: tail, TailPct: tailP,
		Samples: len(lats), Ladder: percentiles(lats), PerSec: perSec}
}

// ensureHistory builds the pre-populated store once per checkout:
// historySize decided classes written through an in-process service,
// so the records are exactly what the daemon itself would store.
func ensureHistory(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "READY")); err == nil {
		return nil
	}
	tmp := dir + ".tmp"
	os.RemoveAll(tmp)
	st, err := store.Open(tmp, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	svc := service.New(service.Options{Store: st, Exact: exact.Options{MaxCandidates: daemonMaxCand, Workers: daemonWorkers}})
	for i, m := range genHistory(historySize) {
		res, err := svc.Schedule(context.Background(), m)
		if err != nil {
			st.Close()
			return err
		}
		if !res.Decided {
			st.Close()
			return fmt.Errorf("history class %d undecided", i)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "READY"), nil, 0o644); err != nil {
		return err
	}
	os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

func pick(m map[string]int64, keys []string) map[string]int64 {
	out := map[string]int64{}
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder is the percentile ladder of the tail latency metric.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile of sorted xs
// with at least ten samples beyond it, and that percentile.
func tailPercentile(xs []float64) (float64, float64) {
	for _, p := range tailLadder {
		rank := int(p/100*float64(len(xs)) + 0.999999)
		if len(xs)-rank >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

func percentiles(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []float64{50, 90, 99, 99.9} {
		out[fmt.Sprintf("p%g", p)] = quantile(xs, p/100)
	}
	if len(xs) > 0 {
		out["max"] = xs[len(xs)-1]
	}
	return out
}
