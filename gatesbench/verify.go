package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// Payload is the value every synthetic packet carries: its identity (source
// instance and per-source sequence number), the time it was due (open-loop
// workloads only), eight integers drawn from a pre-generated pool, and a
// checksum binding the integers to the identity.
type Payload struct {
	Src  int32
	Seq  uint64
	Due  int64
	Vals [8]int64
	Sum  uint64
}

// mix is the splitmix64 finalizer, used to spread identities and values
// over the checksum.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func valsSum(v *[8]int64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range v {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h
}

// checksum is what a correct Payload's Sum field holds.
func checksum(src int32, seq uint64, v *[8]int64) uint64 {
	return valsSum(v) ^ mix(uint64(src)<<48^seq)
}

// valuePool is the pre-generated pool of payload integers with their
// precomputed value hashes, so sources pay one mix per packet.
type valuePool struct {
	vals [][8]int64
	sums []uint64
}

func newValuePool(rng *rand.Rand, n int) *valuePool {
	p := &valuePool{vals: make([][8]int64, n), sums: make([]uint64, n)}
	for i := range p.vals {
		for j := range p.vals[i] {
			p.vals[i][j] = rng.Int63()
		}
		p.sums[i] = valsSum(&p.vals[i])
	}
	return p
}

// fill writes packet (src, seq) into p using pool entry seq mod size.
func (vp *valuePool) fill(p *Payload, src int32, seq uint64) {
	k := int(seq % uint64(len(vp.vals)))
	p.Src, p.Seq = src, seq
	p.Vals = vp.vals[k]
	p.Sum = vp.sums[k] ^ mix(uint64(src)<<48^seq)
}

// payloadRing hands a source one reusable Payload slot per sequence number.
// A slot is reused size packets later; the rings are sized far above the
// packets a pipeline can hold in flight, and a slot overwritten too early
// would surface as a sequence or checksum failure, never silently.
type payloadRing []Payload

const ringSize = 1 << 13

func (r payloadRing) slot(seq uint64) *Payload { return &r[seq&(ringSize-1)] }

// edgeCheck verifies one edge's delivery against each source's sequence:
// every packet exactly once, in order. Out-of-range arrivals are classified
// as they come: a gap opens a set of missing numbers, a later arrival of a
// missing number is a reorder, any other repeat is a duplicate, and numbers
// still missing (or never reached) at the end are lost. Confined to the
// goroutine that delivers into it.
type edgeCheck struct {
	name    string
	next    []uint64
	missing []map[uint64]bool
	seen    int64

	dup, reordered int64
}

func newEdgeCheck(name string, sources int) *edgeCheck {
	return &edgeCheck{name: name, next: make([]uint64, sources), missing: make([]map[uint64]bool, sources)}
}

// observe records the arrival of (src, seq).
func (c *edgeCheck) observe(src int, seq uint64) {
	c.seen++
	if src < 0 || src >= len(c.next) {
		c.dup++ // an identity no source sent: count it as a spurious delivery
		return
	}
	switch n := c.next[src]; {
	case seq == n:
		c.next[src] = n + 1
	case seq > n:
		if c.missing[src] == nil {
			c.missing[src] = make(map[uint64]bool)
		}
		for s := n; s < seq; s++ {
			c.missing[src][s] = true
		}
		c.next[src] = seq + 1
	default:
		if c.missing[src][seq] {
			delete(c.missing[src], seq)
			c.reordered++
		} else {
			c.dup++
		}
	}
}

// lost returns how many of the sent[src] packets per source never arrived.
func (c *edgeCheck) lost(sent []uint64) int64 {
	var n int64
	for src, want := range sent {
		if src >= len(c.next) {
			n += int64(want)
			continue
		}
		n += int64(len(c.missing[src]))
		if c.next[src] < want {
			n += int64(want - c.next[src])
		}
	}
	return n
}

// tally accumulates one run's verification outcome.
type tally struct {
	attempted int64 // items sent
	lost      int64
	dup       int64
	reordered int64
	corrupt   int64
	other     int64 // whole-run checks that failed (accuracy, counters)
	problems  []string
}

func (t *tally) failed() int64 { return t.lost + t.dup + t.reordered + t.corrupt + t.other }

func (t *tally) fail(format string, args ...any) {
	t.other++
	t.note(format, args...)
}

func (t *tally) note(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// closeEdge folds an edge's counts into the tally.
func (t *tally) closeEdge(c *edgeCheck, sent []uint64) {
	lost := c.lost(sent)
	t.lost += lost
	t.dup += c.dup
	t.reordered += c.reordered
	if lost+c.dup+c.reordered > 0 {
		t.note("edge %s: lost %d, duplicated %d, reordered %d", c.name, lost, c.dup, c.reordered)
	}
}

// checkPayload verifies a payload's checksum, counting a mismatch as
// corruption.
func (t *tally) checkPayload(p *Payload) bool {
	if p.Sum != checksum(p.Src, p.Seq, &p.Vals) {
		t.corrupt++
		t.note("corrupt payload src=%d seq=%d", p.Src, p.Seq)
		return false
	}
	return true
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.lost += o.lost
	t.dup += o.dup
	t.reordered += o.reordered
	t.corrupt += o.corrupt
	t.other += o.other
	for _, p := range o.problems {
		t.note("%s", p)
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for an already sorted sample.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// latQ is one trial's latency summary in milliseconds, kept instead of the
// samples so a run's retained heap does not grow trial by trial.
type latQ struct {
	n             int
	p50, p90, p99 float64
}

func latencyQuantiles(ns []float64) latQ {
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	return latQ{len(s), sortedQuantile(s, 0.5) / 1e6, sortedQuantile(s, 0.9) / 1e6, sortedQuantile(s, 0.99) / 1e6}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
