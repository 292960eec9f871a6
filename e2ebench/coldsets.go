package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
)

// coldSet is a density-1 deadline multiset: sporadic single-element
// constraints with weights 2–3 whose Σ w/d is exactly 1 and whose
// hyperperiod is at most 64, so the daemon searches every length up to
// the hyperperiod. The analytic tier cannot refute (density is not
// over 1) or construct (Theorem 3 needs ≤ 1/2), the heuristic finds no
// schedule, and only the exact search decides it.
type coldSet struct {
	wd    []int   // weight, deadline pairs
	nodes int     // exact-search nodes at calibration
	ms    float64 // exact-search wall time at calibration
}

func (s coldSet) model() *core.Model {
	var ws, ds []int
	for i := 0; i < len(s.wd); i += 2 {
		ws, ds = append(ws, s.wd[i]), append(ds, s.wd[i+1])
	}
	return singleSporadic(ws, ds)
}

func (s coldSet) String() string { return fmt.Sprint(s.wd) }

const (
	// coldMinMS and coldMaxMS bound the calibrated search time of a
	// cold_search class. Longer searches (the w=3 classes of 3–37 s)
	// would make one request a whole run and a single sample; searches
	// of 100–300 ms, with their larger transposition tables, made runs
	// about half again as sensitive to the machine's drift.
	coldMinMS = 1
	coldMaxMS = 100
	// coldProbeCount is the size of the fixed cold_search warm pass.
	coldProbeCount = 6
	// poolExactMaxMS bounds the search time of the pool's
	// exact-decided classes.
	poolExactMaxMS = 5
)

// coldEligible is the cold_search population: calibrated classes the
// budgeted search decides in [coldMinMS, coldMaxMS], sorted by nodes.
func coldEligible() []coldSet {
	var out []coldSet
	for _, s := range coldTable {
		if s.ms >= coldMinMS && s.ms <= coldMaxMS {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].nodes < out[j].nodes })
	return out
}

// coldProbes is the seed-independent warm pass of cold_search: evenly
// spaced classes of the population, so its exact counts repeat exactly
// from run to run whatever the seed.
func coldProbes() []coldSet {
	all := coldEligible()
	var out []coldSet
	for i := 0; i < coldProbeCount; i++ {
		out = append(out, all[(2*i+1)*len(all)/(2*coldProbeCount)])
	}
	return out
}

// coldStrata is how many node-count strata coldTimed interleaves.
const coldStrata = 16

// coldTimed is the cold_search population without the probes, in
// node-count strata, each in a fixed shuffled order. Request r takes
// the next class of stratum r mod coldStrata, so the work arrives at
// an even rate, and every run makes the same searches in the same
// order: the seed changes only their spelling.
func coldTimed() [][]coldSet {
	probe := map[string]bool{}
	for _, p := range coldProbes() {
		probe[p.String()] = true
	}
	var rest []coldSet
	for _, s := range coldEligible() {
		if !probe[s.String()] {
			rest = append(rest, s)
		}
	}
	strata := make([][]coldSet, coldStrata)
	for i, s := range rest {
		k := i * coldStrata / len(rest)
		strata[k] = append(strata[k], s)
	}
	rng := rand.New(rand.NewSource(1))
	for _, st := range strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	return strata
}

// poolExact is the pool's supply of classes only the exact search
// decides, each within poolExactMaxMS.
func poolExact() []coldSet {
	var out []coldSet
	for _, s := range coldTable {
		if s.ms <= poolExactMaxMS {
			out = append(out, s)
		}
	}
	return out
}

// calibrate enumerates every density-1 multiset of (weight 2–3,
// deadline) pairs with two to four constraints and hyperperiod ≤ 64,
// runs the daemon's pipeline on each in-process and prints the ones
// the exact search decides within the daemon's budget as Go source
// for coldTable.
func calibrate() {
	var sets [][]int
	var enum func(cur []int, num, den, l int)
	enum = func(cur []int, num, den, l int) {
		if num == den {
			if len(cur) >= 4 {
				sets = append(sets, append([]int(nil), cur...))
			}
			return
		}
		if len(cur) >= 8 {
			return
		}
		for w := 2; w <= 3; w++ {
			for d := w + 1; d <= 64; d++ {
				if n := len(cur); n > 0 && (w < cur[n-2] || w == cur[n-2] && d < cur[n-1]) {
					continue // pairs ascend, so each multiset appears once
				}
				l2 := l / gcd(l, d) * d
				n2, d2 := num*d+w*den, den*d
				if l2 > 64 || n2 > d2 {
					continue
				}
				g := gcd(n2, d2)
				enum(append(cur, w, d), n2/g, d2/g, l2)
			}
		}
	}
	enum(nil, 0, 1, 1)
	fmt.Println("var coldTable = []coldSet{")
	for _, wd := range sets {
		s := coldSet{wd: wd}
		m := s.model()
		if fd, err := analysis.DecideFast(m); err != nil || fd.Verdict != analysis.Unknown {
			continue
		}
		if _, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true}); err == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		t0 := time.Now()
		_, st, err := exact.FindScheduleCtx(ctx, m, exact.Options{
			MaxLen: m.Hyperperiod(), MaxCandidates: daemonMaxCand, Workers: daemonWorkers})
		ms := time.Since(t0).Seconds() * 1000
		cancel()
		if err != nil && !errors.Is(err, exact.ErrNotFound) {
			continue // undecided within the budget, or too slow to time
		}
		fmt.Printf("\t{%#v, %d, %.3f},\n", wd, st.NodesExplored, ms)
	}
	fmt.Println("}")
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
