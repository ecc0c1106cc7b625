package main

import (
	"math/rand"
	"testing"
)

// TestEdgeCheckClassifies feeds hand-made arrival orders to the edge
// verifier and checks each defect lands in its own class.
func TestEdgeCheckClassifies(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		arrivals             []uint64
		lost, dup, reordered int64
	}{
		{"clean", []uint64{0, 1, 2, 3, 4}, 0, 0, 0},
		{"loss", []uint64{0, 1, 3, 4}, 1, 0, 0},
		{"tail loss", []uint64{0, 1, 2}, 2, 0, 0},
		{"duplicate", []uint64{0, 1, 1, 2, 3, 4}, 0, 1, 0},
		{"reorder", []uint64{0, 2, 1, 3, 4}, 0, 0, 1},
		{"stale repeat after reorder", []uint64{0, 2, 1, 1, 3, 4}, 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newEdgeCheck("test", 1)
			for _, s := range tc.arrivals {
				c.observe(0, s)
			}
			if got := c.lost([]uint64{5}); got != tc.lost {
				t.Errorf("lost = %d, want %d", got, tc.lost)
			}
			if c.dup != tc.dup || c.reordered != tc.reordered {
				t.Errorf("dup, reordered = %d, %d, want %d, %d", c.dup, c.reordered, tc.dup, tc.reordered)
			}
		})
	}
}

// TestUndisturbedSetsAsideStolenSamples checks the steal filter: samples
// over maxSteal are dropped while enough remain, and otherwise the least
// disturbed are kept.
func TestUndisturbedSetsAsideStolenSamples(t *testing.T) {
	calm := []obsv{{1, 0}, {2, 0.01}, {3, 0.3}, {4, 0.001}}
	if vals, aside, steal := undisturbed(calm); len(vals) != 3 || aside != 1 || steal != 0.01 {
		t.Errorf("calm run: kept %v, set aside %d, steal %v", vals, aside, steal)
	}
	stormy := []obsv{{1, 0.5}, {2, 0.05}, {3, 0.3}, {4, 0.01}, {5, 0.9}}
	vals, aside, steal := undisturbed(stormy)
	if len(vals) != 3 || vals[0] != 4 || vals[1] != 2 || vals[2] != 3 || aside != 2 || steal != 0.3 {
		t.Errorf("stormy run: kept %v, set aside %d, steal %v", vals, aside, steal)
	}
}

func TestChecksumBindsIdentity(t *testing.T) {
	pool := newValuePool(rand.New(rand.NewSource(1)), 16)
	var p Payload
	pool.fill(&p, 1, 42)
	var tl tally
	if !tl.checkPayload(&p) {
		t.Fatal("a freshly filled payload failed its checksum")
	}
	for name, mutate := range map[string]func(*Payload){
		"value":    func(q *Payload) { q.Vals[7]++ },
		"sequence": func(q *Payload) { q.Seq++ },
		"source":   func(q *Payload) { q.Src = 0 },
	} {
		q := p
		mutate(&q)
		if tl.checkPayload(&q) {
			t.Errorf("changed %s passed the checksum", name)
		}
	}
}

// TestVerifierCatchesInjectedFaults runs the inproc_fanin pipeline with one
// fault injected at the relay per run — a lost, a duplicated, a reordered
// and a corrupted packet — and checks the sink's verification reports
// exactly that fault, while a clean run reports none.
func TestVerifierCatchesInjectedFaults(t *testing.T) {
	pool := newValuePool(rand.New(rand.NewSource(7)), 256)
	for _, tc := range []struct {
		name  string
		fault fault
		class func(*tally) int64
	}{
		{"clean", noFault, func(*tally) int64 { return 0 }},
		{"loss", faultLoss, func(t *tally) int64 { return t.lost }},
		{"duplicate", faultDup, func(t *tally) int64 { return t.dup }},
		{"reorder", faultReorder, func(t *tally) int64 { return t.reordered }},
		{"corrupt", faultCorrupt, func(t *tally) int64 { return t.corrupt }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := fanTrial(pool, fanOpts{perSource: 1000, observed: true, fault: tc.fault})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if tc.fault != noFault {
				want = 1
			}
			if got := tc.class(&res.t); got != want {
				t.Errorf("fault class count = %d, want %d (problems: %v)", got, want, res.t.problems)
			}
			if got := res.t.failed(); got != want {
				t.Errorf("failed = %d, want %d (problems: %v)", got, want, res.t.problems)
			}
		})
	}
}
