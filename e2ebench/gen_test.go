package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/service"
	"rtm/internal/spec"
)

var workloads = []string{"hot_repeat", "iso_mix", "cold_search"}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		a, err := genInputs(w, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genInputs(w, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genInputs(w, 8, 300)
		if err != nil {
			t.Fatal(err)
		}
		same := func(x, y []request) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i].class != y[i].class || !bytes.Equal(x[i].body, y[i].body) {
					return false
				}
			}
			return true
		}
		if !same(a.warm, b.warm) || !same(a.timed, b.timed) {
			t.Errorf("%s: seed 7 gave different inputs on two draws", w)
		}
		if same(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same timed inputs", w)
		}
	}
}

func TestStructKeyIsRenamingInvariant(t *testing.T) {
	in, err := genInputs("iso_mix", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for ci, c := range in.classes {
		if got := structKey(rename(c.model, "z", rng, true)); got != c.key {
			t.Fatalf("class %d (%s): renaming changed the structural key", ci, c.family)
		}
	}
	for _, r := range append(in.warm, in.timed...) {
		sp, err := spec.Parse(string(r.body))
		if err != nil {
			t.Fatal(err)
		}
		if structKey(sp.Model) != in.classes[r.class].key {
			t.Fatalf("request of class %d does not parse back to its class", r.class)
		}
	}
}

// Distinct structural keys must mean distinct classes: every class the
// generator deduplicated gets its own canonical fingerprint.
func TestDedupedClassesAreDistinct(t *testing.T) {
	for _, w := range workloads {
		in, err := genInputs(w, 5, 400)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for ci, c := range in.classes {
			fp := core.Fingerprint(c.model)
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s: classes %d and %d share fingerprint %s", w, prev, ci, fp)
			}
			seen[fp] = ci
		}
	}
}

func TestColdRequestsAreDistinctSearches(t *testing.T) {
	in, err := genInputs("cold_search", 11, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fps, keys := map[string]bool{}, map[string]bool{}
	for _, r := range append(in.warm, in.timed...) {
		sp, err := spec.Parse(string(r.body))
		if err != nil {
			t.Fatal(err)
		}
		m := sp.Model
		fp := core.Fingerprint(m)
		key, ok := exact.MemoKey(m, exact.Options{MaxLen: min(m.Hyperperiod(), 64), MaxCandidates: daemonMaxCand, Workers: daemonWorkers})
		if !ok {
			t.Fatalf("class %d has no memo key", r.class)
		}
		if fps[fp] || keys[key] {
			t.Fatalf("class %d repeats a fingerprint or a memo key", r.class)
		}
		fps[fp], keys[key] = true, true
	}
	if len(in.timed) < 200 {
		t.Errorf("cold_search has only %d timed classes", len(in.timed))
	}
}

// The pool must be decided in full (undecided classes are never
// cached), with short schedules, and known-truth classes must get
// their constructed verdict.
func TestPoolDecided(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in, err := genInputs("hot_repeat", seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{Exact: exact.Options{MaxCandidates: daemonMaxCand, Workers: daemonWorkers}})
		sym := 0
		for _, r := range in.warm[:poolSize] {
			c := in.classes[r.class]
			sp, err := spec.Parse(string(r.body))
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.Schedule(context.Background(), sp.Model)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decided {
				t.Errorf("seed %d: pool class %d (%s) undecided", seed, r.class, c.family)
			}
			if res.Schedule != nil && res.Schedule.Len() > maxPoolSchedule {
				t.Errorf("seed %d: pool class %d (%s) serves %d slots", seed, r.class, c.family, res.Schedule.Len())
			}
			if (c.truth == truthFeasible && !res.Feasible) || (c.truth == truthInfeasible && res.Feasible) {
				t.Errorf("seed %d: pool class %d (%s) verdict %v against its construction", seed, r.class, c.family, res.Feasible)
			}
			if c.family == "sym" {
				sym++
			}
		}
		if sym != poolSize/4 {
			t.Errorf("seed %d: %d symmetric pool classes, want %d", seed, sym, poolSize/4)
		}
	}
}
