package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
	"rtm/internal/nphard"
	"rtm/internal/spec"
	"rtm/internal/workload"
)

// truth is what a class's construction proves about its verdict,
// independently of the program under test.
type truth int

const (
	truthUnknown    truth = iota
	truthFeasible         // satisfies Theorem 3, or a YES instance of 3-PARTITION
	truthInfeasible       // single-element sporadic set with Σ w/d > 1
)

// class is one isomorphism class the benchmark sends, in one base
// spelling. Every request names its class, so verdicts can be compared
// across repeats and renamings.
type class struct {
	family string
	model  *core.Model
	truth  truth
	key    string // structKey(model)
}

// request is one POST /schedule body.
type request struct {
	class int
	body  []byte
}

// inputs is everything one workload sends, fixed by the seed before
// the daemon starts.
type inputs struct {
	classes []*class
	warm    []request // sent one at a time during set-up
	timed   []request // timed-phase sequence
	cyclic  bool      // the timed phase cycles over timed
}

const (
	poolSize = 64
	// historySeed fixes the pre-populated store: every workload and
	// seed replays the same history.
	historySeed = 20260
	// historyMarkerWeight is the weight of one extra element every
	// history class carries. No workload generator draws an element
	// this heavy, so no request is ever a history class.
	historyMarkerWeight = 4
)

// structKey is a generator-side isomorphism invariant: equal for
// isomorphic models, so distinct keys prove distinct classes. It is
// linear in the model, unlike core.Fingerprint, which is factorial on
// symmetric models and is itself a layer under test.
func structKey(m *core.Model) string {
	var elems []string
	for _, e := range m.Comm.Elements() {
		elems = append(elems, fmt.Sprintf("%d/%d/%d", m.Comm.WeightOf(e), m.Comm.G.InDegree(e), m.Comm.G.OutDegree(e)))
	}
	sort.Strings(elems)
	var cons []string
	for _, c := range m.Constraints {
		var steps, precs []string
		w := func(nd string) int { return m.Comm.WeightOf(c.Task.ElementOf(nd)) }
		for _, nd := range c.Task.Nodes() {
			steps = append(steps, fmt.Sprint(w(nd)))
		}
		for _, e := range c.Task.G.Edges() {
			precs = append(precs, fmt.Sprintf("%d>%d", w(e.From), w(e.To)))
		}
		sort.Strings(steps)
		sort.Strings(precs)
		cons = append(cons, fmt.Sprintf("%d:%d:%d[%s][%s]", c.Kind, c.Period, c.Deadline,
			strings.Join(steps, ","), strings.Join(precs, ",")))
	}
	sort.Strings(cons)
	return fmt.Sprintf("E%s|P%d|C%s", strings.Join(elems, ","), m.Comm.G.NumEdges(), strings.Join(cons, ";"))
}

// singleSporadic builds one element per (weight, deadline) pair, each
// with its own sporadic constraint of separation = deadline.
func singleSporadic(ws, ds []int) *core.Model {
	m := core.NewModel()
	for i := range ws {
		name := fmt.Sprintf("u%d", i)
		m.Comm.AddElement(name, ws[i])
		m.AddConstraint(&core.Constraint{
			Name: "c" + name, Task: core.ChainTask(name),
			Period: ds[i], Deadline: ds[i], Kind: core.Asynchronous,
		})
	}
	return m
}

// sporadicTruth is the known verdict of a single-element sporadic set:
// Theorem 3 proves it feasible, demand over one proves it infeasible.
func sporadicTruth(m *core.Model) truth {
	if heuristic.CheckTheorem3Hypotheses(m) == nil {
		return truthFeasible
	}
	if m.DeadlineDensity() > 1+1e-9 {
		return truthInfeasible
	}
	return truthUnknown
}

// drawThm3 draws a Theorem-3 instance (feasible by construction).
func drawThm3(rng *rand.Rand) *core.Model {
	for {
		m := workload.Theorem3Instance(rng, 3+rng.Intn(5), 0.25+0.2*rng.Float64())
		if m != nil && heuristic.CheckTheorem3Hypotheses(m) == nil {
			return m
		}
	}
}

// drawOverutil draws a single-element sporadic set with Σ w/d > 1.1
// (infeasible by construction).
func drawOverutil(rng *rand.Rand) *core.Model {
	for {
		k := 3 + rng.Intn(3)
		ws, ds := make([]int, k), make([]int, k)
		for i := range ws {
			ws[i] = 1 + rng.Intn(3)
			ds[i] = ws[i] + rng.Intn(3*ws[i])
		}
		if m := singleSporadic(ws, ds); m.DeadlineDensity() > 1.1 {
			return m
		}
	}
}

// drawSym draws a class with k interchangeable unit elements (same
// weight, same sporadic deadline): the shape whose canonicalization is
// factorial in k. A feasible draw satisfies Theorem 3, with one
// heavier element beside the interchangeable ones when the density
// leaves room; an infeasible one overloads a window shorter than k.
func drawSym(rng *rand.Rand, k int, feasible bool) *core.Model {
	ws, ds := make([]int, k), make([]int, k)
	for i := range ws {
		ws[i] = 1
	}
	if !feasible {
		d := 2 + rng.Intn(k-2)
		for i := range ds {
			ds[i] = d
		}
		return singleSporadic(ws, ds)
	}
	d := 2*k + rng.Intn(2*k)
	for i := range ds {
		ds[i] = d
	}
	if room := 0.5 - float64(k)/float64(d); room > 0.05 {
		w := 2 + rng.Intn(2)
		dd := int(float64(w)/room) + 1 + rng.Intn(8)
		ws, ds = append(ws, w), append(ds, dd)
	}
	return singleSporadic(ws, ds)
}

// drawThreePartition encodes a YES instance of 3-PARTITION (two
// triples, each summing to B with every size in (B/4, B/2)) with
// nphard.EncodeThreePartition. A YES instance has a contiguous
// schedule, so the daemon, whose search also admits preemptive ones,
// must find it feasible; nphard.ThreePartition.Solve confirms the
// construction.
func drawThreePartition(rng *rand.Rand) (*core.Model, truth) {
	for {
		b := 12 + rng.Intn(16)
		var sizes []int
		for len(sizes) < 6 {
			x := b/4 + 1 + rng.Intn((b-1)/2-b/4)
			y := b/4 + 1 + rng.Intn((b-1)/2-b/4)
			if z := b - x - y; 4*z > b && 2*z < b {
				sizes = append(sizes, x, y, z)
			}
		}
		tp := nphard.ThreePartition{Sizes: sizes, B: b}
		if _, yes := tp.Solve(); !yes {
			panic(fmt.Sprintf("3-PARTITION instance %v built with a partition has none", tp))
		}
		if m, err := nphard.EncodeThreePartition(tp); err == nil {
			return m, truthFeasible
		}
	}
}

// corpusRegime is one deadline-tightness band of the layered random
// DAG generator (the four bands of rtbench -corpus).
type corpusRegime struct {
	name                 string
	stretchLo, stretchHi float64
	periodLo, periodHi   float64
	asyncMax             float64
}

var corpusRegimes = []corpusRegime{
	{"tight", 1.0, 1.15, 1.0, 2.0, 1.0},
	{"mid", 1.2, 1.8, 1.0, 2.0, 1.0},
	{"loose", 2.0, 3.5, 1.0, 2.0, 1.0},
	{"anchored", 1.0, 1.4, 2.5, 6.0, 0.15},
}

// drawLayered draws one layered random-DAG model from a regime.
func drawLayered(rng *rand.Rand, reg corpusRegime) *core.Model {
	for {
		p := workload.LayeredParams{
			Layers:        1 + rng.Intn(3),
			Width:         1 + rng.Intn(3),
			Density:       0.3 + 0.4*rng.Float64(),
			MaxWeight:     1 + rng.Intn(3),
			Constraints:   1 + rng.Intn(4),
			ChainLen:      1 + rng.Intn(4),
			AsyncFrac:     reg.asyncMax * rng.Float64(),
			Stretch:       reg.stretchLo + (reg.stretchHi-reg.stretchLo)*rng.Float64(),
			PeriodStretch: reg.periodLo + (reg.periodHi-reg.periodLo)*rng.Float64(),
		}
		if m, err := workload.Layered(rng, p); err == nil {
			return m
		}
	}
}

// witnessLen reports whether the analytic tier or the heuristic
// decides m, so the daemon decides it without an exact search and
// hence for certain, and the length of the schedule it then serves
// (0 for a refutation).
func witnessLen(m *core.Model) (int, bool) {
	if fd, err := analysis.DecideFast(m); err == nil && fd.Verdict != analysis.Unknown {
		if fd.Witness == nil {
			return 0, true
		}
		return fd.Witness.Len(), true
	}
	if res, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true}); err == nil {
		return res.Schedule.Len(), true
	}
	return 0, false
}

// maxPoolSchedule bounds the schedule length of a pool class. Every
// hit remaps and may re-check and serialize the whole schedule, and
// constructions over co-prime deadlines reach thousands of slots: a
// few such classes would set a pool's hit cost and memory, and make
// them differ from seed to seed.
const maxPoolSchedule = 128

// classSet accumulates distinct classes, deduplicated by structKey.
type classSet struct {
	classes []*class
	seen    map[string]bool
}

func newClassSet() *classSet { return &classSet{seen: map[string]bool{}} }

// add appends m as a new class unless an isomorphic class is already
// present; it returns the class index, or -1 for a duplicate.
func (s *classSet) add(family string, m *core.Model, t truth) int {
	k := structKey(m)
	if s.seen[k] {
		return -1
	}
	s.seen[k] = true
	s.classes = append(s.classes, &class{family: family, model: m, truth: t, key: k})
	return len(s.classes) - 1
}

// genPool draws the warm pool shared by hot_repeat and iso_mix: a
// quarter symmetric classes, Theorem-3 instances, over-utilized sets,
// 3-PARTITION encodings, loose-regime layered DAGs and a few classes
// only the exact search decides. The daemon decides every one of them,
// each with a schedule of at most maxPoolSchedule slots.
func genPool(rng *rand.Rand, cs *classSet) []int {
	var pool []int
	take := func(n int, family string, draw func(i int) (*core.Model, truth)) {
		for got := 0; got < n; {
			m, t := draw(got)
			if l, ok := witnessLen(m); family != "exact" && (!ok || l > maxPoolSchedule) {
				continue
			}
			if i := cs.add(family, m, t); i >= 0 {
				pool = append(pool, i)
				got++
			}
		}
	}
	sporadic := func(f func(*rand.Rand) *core.Model) func(int) (*core.Model, truth) {
		return func(int) (*core.Model, truth) { m := f(rng); return m, sporadicTruth(m) }
	}
	// the symmetric classes' sizes are fixed, not drawn: their
	// canonicalization cost is factorial in k and sets the hit path's
	// cost, so every seed gets the same mix
	take(poolSize/4, "sym", func(i int) (*core.Model, truth) {
		m := drawSym(rng, 5+i%3, i%4 != 3)
		return m, sporadicTruth(m)
	})
	take(14, "thm3", sporadic(drawThm3))
	take(12, "overutil", sporadic(drawOverutil))
	take(4, "3partition", func(int) (*core.Model, truth) { return drawThreePartition(rng) })
	take(14, "loose", func(int) (*core.Model, truth) { return drawLayered(rng, corpusRegimes[2]), truthUnknown })
	cheap := poolExact()
	take(poolSize-len(pool), "exact", func(int) (*core.Model, truth) {
		return cheap[rng.Intn(len(cheap))].model(), truthUnknown
	})
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// rename rebuilds m under fresh element, node and constraint names:
// an isomorphic surface of the same class that shares no bytes of
// naming with any other surface. A shuffled rename also permutes the
// element order and the constraint order. The exact search numbers
// its symbols in sorted element-name order, so its work depends on
// the spelling; an unshuffled rename keeps both orders, and with them
// the calibrated search of coldTable.
func rename(m *core.Model, prefix string, rng *rand.Rand, shuffle bool) *core.Model {
	elems := m.Comm.Elements()
	perm, order := identity(len(elems)), identity(len(m.Constraints))
	if shuffle {
		perm, order = rng.Perm(len(elems)), rng.Perm(len(m.Constraints))
	}
	ren := make(map[string]string, len(elems))
	for i, e := range elems {
		ren[e] = fmt.Sprintf("%se%03d", prefix, perm[i])
	}
	out := core.NewModel()
	for _, e := range elems {
		out.Comm.AddElement(ren[e], m.Comm.WeightOf(e))
	}
	for _, e := range m.Comm.G.Edges() {
		out.Comm.AddPath(ren[e.From], ren[e.To])
	}
	for ci, idx := range order {
		c := m.Constraints[idx]
		task := core.NewTaskGraph()
		nodes := make(map[string]string)
		for j, nd := range c.Task.Nodes() {
			el := c.Task.ElementOf(nd)
			if nd == el {
				nodes[nd] = ren[el]
			} else {
				nodes[nd] = fmt.Sprintf("%sn%d_%d", prefix, ci, j)
			}
			task.AddStep(nodes[nd], ren[el])
		}
		for _, e := range c.Task.G.Edges() {
			task.AddPrec(nodes[e.From], nodes[e.To])
		}
		out.AddConstraint(&core.Constraint{
			Name: fmt.Sprintf("%sc%d", prefix, ci), Task: task,
			Period: c.Period, Deadline: c.Deadline, Kind: c.Kind,
		})
	}
	return out
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// surface renders class ci under a fresh naming as a request; the
// names carry a tag drawn from the seed.
func surface(cs *classSet, ci int, system, prefix string, rng *rand.Rand, shuffle bool) request {
	prefix += fmt.Sprintf("x%04x", rng.Intn(1<<16))
	m := rename(cs.classes[ci].model, prefix, rng, shuffle)
	return request{class: ci, body: []byte(spec.Print(system, m))}
}

// genInputs builds a workload's requests from the seed. n bounds the
// length of a non-cyclic timed sequence.
func genInputs(workload string, seed int64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	cs := newClassSet()
	in := &inputs{}
	switch workload {
	case "hot_repeat":
		// one fixed surface per pool class, re-posted byte for byte
		pool := genPool(rng, cs)
		surfaces := make([]request, len(pool))
		for i, ci := range pool {
			surfaces[i] = surface(cs, ci, fmt.Sprintf("pool%d", i), fmt.Sprintf("p%d", i), rng, false)
		}
		in.warm = append(append(in.warm, surfaces...), surfaces...)
		for _, i := range rng.Perm(len(surfaces)) {
			in.timed = append(in.timed, surfaces[i])
		}
		in.cyclic = true
	case "iso_mix":
		pool := genPool(rng, cs)
		for i, ci := range pool {
			in.warm = append(in.warm, surface(cs, ci, fmt.Sprintf("pool%d", i), fmt.Sprintf("p%d", i), rng, false))
		}
		for r := 0; r < n; r++ {
			system, prefix := fmt.Sprintf("iso%d", r), fmt.Sprintf("r%d", r)
			if rng.Float64() >= isoFreshShare {
				in.timed = append(in.timed, surface(cs, pool[rng.Intn(len(pool))], system, prefix, rng, true))
				continue
			}
			for {
				reg := corpusRegimes[rng.Intn(len(corpusRegimes))]
				ci := cs.add("fresh-"+reg.name, drawLayered(rng, reg), truthUnknown)
				if ci < 0 {
					continue
				}
				if req := surface(cs, ci, system, prefix, rng, true); quickToDecide(req) {
					in.timed = append(in.timed, req)
					break
				}
			}
		}
	case "cold_search":
		for i, s := range coldProbes() {
			ci := cs.add("cold-probe", s.model(), truthUnknown)
			in.warm = append(in.warm, surface(cs, ci, fmt.Sprintf("probe%d", i), fmt.Sprintf("q%d", i), rng, false))
		}
		strata := coldTimed()
		for r := 0; r < n; r++ {
			st := strata[r%len(strata)]
			if r/len(strata) >= len(st) {
				break
			}
			s := st[r/len(strata)]
			ci := cs.add("cold", s.model(), truthUnknown)
			if ci < 0 {
				return nil, fmt.Errorf("cold set %v repeats a class", s)
			}
			in.timed = append(in.timed, surface(cs, ci, fmt.Sprintf("cold%d", r), fmt.Sprintf("r%d", r), rng, false))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot_repeat, iso_mix or cold_search)", workload)
	}
	in.classes = cs.classes
	return in, nil
}

// isoFreshShare is the share of iso_mix requests that are never-seen
// classes; the rest are fresh renamings of pool classes.
const isoFreshShare = 0.15

// A never-seen iso_mix class that needs the exact search must have a
// hyperperiod of at most screenMaxLen and be decided within
// screenCandidates, a tenth of the daemon's budget.
const (
	screenMaxLen     = 32
	screenCandidates = daemonMaxCand / 10
)

// quickToDecide reports whether the daemon decides the request's
// model quickly: by the analytic tier, the heuristic, or a small exact
// search. A candidate budget does not bound the nodes between
// candidates: over the daemon's 64-slot length cap, one corpus draw
// (hyperperiod 6240) explored 16.7M nodes for 2000 candidates in 16 s.
// A short hyperperiod bounds the tree's depth. Some short-hyperperiod
// draws still exhaust the budget, after tens of MB of transposition
// table, and a few of them set a run's memory peak. The search's work
// depends on the spelling, so the screen runs on the request as sent.
func quickToDecide(r request) bool {
	sp, err := spec.Parse(string(r.body))
	if err != nil {
		return false
	}
	m := sp.Model
	if _, ok := witnessLen(m); ok {
		return true
	}
	if m.Hyperperiod() > screenMaxLen {
		return false
	}
	_, _, err = exact.FindSchedule(m, exact.Options{
		MaxLen: m.Hyperperiod(), MaxCandidates: screenCandidates, Workers: daemonWorkers})
	return err == nil || errors.Is(err, exact.ErrNotFound)
}

// genHistory draws the classes of the pre-populated store: n
// distinct classes the analytic tier decides, each marked by one
// extra element no workload draws.
func genHistory(n int) []*core.Model {
	rng := rand.New(rand.NewSource(historySeed))
	cs := newClassSet()
	var out []*core.Model
	for len(out) < n {
		var m *core.Model
		switch rng.Intn(3) {
		case 0:
			m = drawThm3(rng)
		case 1:
			m = drawOverutil(rng)
		default:
			m = drawLayered(rng, corpusRegimes[rng.Intn(len(corpusRegimes))])
		}
		m.Comm.AddElement("hmark", historyMarkerWeight)
		m.AddConstraint(&core.Constraint{
			Name: "chmark", Task: core.ChainTask("hmark"),
			Period: 128, Deadline: 128, Kind: core.Asynchronous,
		})
		if m.Validate() != nil || cs.add("history", m, truthUnknown) < 0 {
			continue
		}
		if fd, err := analysis.DecideFast(m); err != nil || fd.Verdict == analysis.Unknown {
			continue
		}
		out = append(out, m)
	}
	return out
}
