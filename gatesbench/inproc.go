package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gates "github.com/gates-middleware/gates"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// inproc_fanin: two source instances feed relay, which feeds sink, all in
// one engine built through the facade at batch 64. Closed loop: each source
// emits as fast as backpressure lets it.
const (
	fanSources   = 2
	fanPerSource = 250_000 // packets per source per trial
	fanBatch     = 64
	fanLatStride = 8   // sink samples the latency of one packet in this many
	fanTraceStep = 509 // traced runs trace one packet in this many (prime, so flush phases mix)
)

// fanSource emits its share of the trial's packets.
type fanSource struct {
	src  int32
	n    uint64
	ring payloadRing
	pool *valuePool
	tr   *tracing
}

func (s *fanSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	buf := s.tr.buf()
	for seq := uint64(0); seq < s.n; seq++ {
		p := s.ring.slot(seq)
		s.pool.fill(p, s.src, seq)
		pkt := out.GetPacket()
		pkt.Value = p
		if s.tr.sampled(seq) {
			t0 := s.tr.rec.now()
			err := out.Emit(pkt)
			t1 := s.tr.rec.now()
			buf.add("source.emit", "", s.tr.id(s.src, seq), t0, t1)
			s.tr.srcRet.put(s.src, seq, t1)
			if err != nil {
				return err
			}
			continue
		}
		if err := out.Emit(pkt); err != nil {
			return err
		}
	}
	return nil
}

// fault is a delivery defect relay can inject once, on source 0's packet
// faultSeq, to show the verifier catches it.
type fault int

const (
	noFault fault = iota
	faultLoss
	faultDup
	faultReorder
	faultCorrupt
)

const faultSeq = 100

// relayProc checks the fan-in edge and forwards every packet unchanged.
type relayProc struct {
	check *edgeCheck
	tr    *tracing
	buf   *spanBuf
	fault fault
	held  *Payload // faultReorder: the packet sent after its successor
}

// inject applies r.fault to packet p if it is the chosen one, reporting
// whether it took over the forwarding.
func (r *relayProc) inject(p *Payload, pkt *pipeline.Packet, out *pipeline.Emitter) (bool, error) {
	if r.held != nil && p.Src == 0 && p.Seq == faultSeq+1 {
		if err := out.Emit(pkt); err != nil {
			return true, err
		}
		late := out.GetPacket()
		late.Value, r.held = r.held, nil
		return true, out.Emit(late)
	}
	if p.Src != 0 || p.Seq != faultSeq {
		return false, nil
	}
	switch r.fault {
	case faultLoss:
		return true, nil
	case faultDup:
		if err := out.Emit(pkt); err != nil {
			return true, err
		}
		again := out.GetPacket()
		again.Value = p
		return true, out.Emit(again)
	case faultReorder:
		r.held = p
		return true, nil
	case faultCorrupt:
		p.Vals[3] ^= 1 << 17
	}
	return false, nil
}

func (r *relayProc) Init(*pipeline.Context) error {
	r.buf = r.tr.buf()
	return nil
}

func (r *relayProc) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	p, ok := pkt.Value.(*Payload)
	if !ok {
		return fmt.Errorf("relay: got %T", pkt.Value)
	}
	src, seq := p.Src, p.Seq
	if r.fault != noFault {
		r.check.observe(int(src), seq)
		if done, err := r.inject(p, pkt, out); done {
			return err
		}
		return out.Emit(pkt)
	}
	if !r.tr.sampled(seq) {
		r.check.observe(int(src), seq)
		return out.Emit(pkt)
	}
	// Clock reads bracket the work only; the span bookkeeping follows.
	rec := r.tr.rec
	tin := rec.now()
	r.check.observe(int(src), seq)
	te0 := rec.now()
	err := out.Emit(pkt)
	te1 := rec.now()
	r.tr.midRet.put(src, seq, te1)
	r.tr.hop(r.buf, "pipeline.hop.relay", r.tr.srcRet, src, seq, tin)
	id := r.tr.id(src, seq)
	r.buf.add("relay.emit", "relay.process", id, te0, te1)
	r.buf.add("relay.process", "", id, tin, te1)
	return err
}

func (r *relayProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// sinkProc verifies every delivered packet and samples end-to-end latency.
type sinkProc struct {
	check     *edgeCheck
	t         tally
	delivered int64
	latNS     []float64
	tr        *tracing
	buf       *spanBuf
}

func (s *sinkProc) Init(*pipeline.Context) error {
	s.buf = s.tr.buf()
	return nil
}

func (s *sinkProc) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	p, ok := pkt.Value.(*Payload)
	if !ok {
		return fmt.Errorf("sink: got %T", pkt.Value)
	}
	traced := s.tr.sampled(p.Seq)
	var tin int64
	if traced {
		tin = s.tr.rec.now()
	}
	s.delivered++
	if p.Seq%fanLatStride == 0 {
		s.latNS = append(s.latNS, float64(time.Since(pkt.Birth)))
	}
	s.t.checkPayload(p)
	s.check.observe(int(p.Src), p.Seq)
	if traced {
		tout := s.tr.rec.now()
		s.tr.hop(s.buf, "pipeline.hop.sink", s.tr.midRet, p.Src, p.Seq, tin)
		s.buf.add("sink.process", "", s.tr.id(p.Src, p.Seq), tin, tout)
	}
	return nil
}

func (s *sinkProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// fanResult is one trial's measurements.
type fanResult struct {
	setupNS   float64
	ph        phase
	delivered float64
	lat       latQ
	t         tally
	queues    map[string]queueCounters
	poolGets  float64
	poolMiss  float64
	e2eCount  float64
}

// fanOpts selects one trial's variant.
type fanOpts struct {
	perSource uint64
	observed  bool     // attach an Observability bundle
	tr        *tracing // nil: untraced
	fault     fault    // injected by relay; the verifier's self-test only
}

// fanTrial builds the pipeline through the facade, runs it to completion
// and verifies the deliveries.
func fanTrial(pool *valuePool, fo fanOpts) (*fanResult, error) {
	n, tr := fo.perSource, fo.tr
	// Fresh payload rings each trial, so a run samples many memory
	// layouts instead of keeping whichever its first allocation drew.
	rings := make([]payloadRing, fanSources)
	for i := range rings {
		rings[i] = make(payloadRing, ringSize)
	}
	// Each trial starts from a collected heap, so one trial's garbage does
	// not land in the next one's measurement.
	runtime.GC()
	t0 := time.Now()
	g, err := gates.NewGrid(gates.GridOptions{DefaultBatchSize: fanBatch})
	if err != nil {
		return nil, err
	}
	var ob *gates.Observability
	if fo.observed {
		ob = g.NewObservability(gates.ObsConfig{})
	}
	e := g.NewEngine()
	relay := &relayProc{check: newEdgeCheck("source->relay", fanSources), tr: tr, fault: fo.fault}
	sink := &sinkProc{check: newEdgeCheck("relay->sink", fanSources), tr: tr,
		latNS: make([]float64, 0, fanSources*int(n)/fanLatStride+fanSources)}
	rs, err := e.AddProcessorStage("relay", 0, relay, gates.StageConfig{})
	if err != nil {
		return nil, err
	}
	ss, err := e.AddProcessorStage("sink", 0, sink, gates.StageConfig{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fanSources; i++ {
		st, err := e.AddSourceStage("source", i, &fanSource{src: int32(i), n: n, ring: rings[i], pool: pool, tr: tr}, gates.StageConfig{})
		if err != nil {
			return nil, err
		}
		if err := e.Connect(st, rs, nil); err != nil {
			return nil, err
		}
	}
	if err := e.Connect(rs, ss, nil); err != nil {
		return nil, err
	}
	res := &fanResult{setupNS: float64(time.Since(t0))}

	poolBefore := pipeline.ReadPoolStats()
	before := takeSample()
	if err := e.Run(context.Background()); err != nil {
		return nil, err
	}
	res.ph = since(before)
	poolAfter := pipeline.ReadPoolStats()
	res.poolGets = float64(poolAfter.Gets - poolBefore.Gets)
	res.poolMiss = float64(poolAfter.Misses - poolBefore.Misses)

	sent := []uint64{n, n}
	res.t = sink.t
	res.t.attempted = int64(fanSources * n)
	res.t.closeEdge(relay.check, sent)
	res.t.closeEdge(sink.check, sent)
	res.delivered = float64(sink.delivered)
	res.lat = latencyQuantiles(sink.latNS)
	res.queues = map[string]queueCounters{"relay": queueStats(rs), "sink": queueStats(ss)}
	if ob != nil {
		n, ok := ob.Registry.Value(obs.MetricE2ELatency, ss.ObsLabels())
		res.e2eCount = n
		if !ok || n != res.delivered {
			res.t.fail("sink %s histogram holds %v observations for %v delivered packets", obs.MetricE2ELatency, n, res.delivered)
		}
	}
	return res, nil
}

func (r *fanResult) itemsPerSec() float64 { return r.delivered / (r.ph.wallNS / 1e9) }

func runInprocFanin(o opts) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	pool := newValuePool(rng, 4096)
	rep := &report{}
	start := time.Now()
	end := deadline(start, o)
	if !o.trace {
		var r *fanResult
		for trials := 0; trials < 3 || time.Now().Before(end); trials++ {
			var err error
			if r, err = fanTrial(pool, fanOpts{perSource: fanPerSource, observed: true}); err != nil {
				return nil, err
			}
			rep.tally.merge(&r.t)
			sampleTrial(rep, r.delivered, r.ph, r.setupNS)
			sampleLatency(rep, r.lat, r.ph.steal)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("trials of %d packets; latency samples per trial %d",
			fanSources*fanPerSource, r.lat.n))
		return rep, nil
	}

	// Traced run: rounds of three paired trials — observed and untraced,
	// observed and traced, unobserved and untraced — so tracing overhead
	// and the observability tax are ratios of neighbouring trials.
	rec := newRecorder()
	var plain, traced, detached []*fanResult
	for len(plain) < 2 || time.Now().Before(end) {
		for _, v := range []struct {
			fo   fanOpts
			into *[]*fanResult
		}{
			{fanOpts{perSource: fanPerSource, observed: true}, &plain},
			// Fresh stamp tables per trial: sequence numbers restart.
			{fanOpts{perSource: fanPerSource, observed: true,
				tr: newTracing(rec, len(traced), fanSources, fanPerSource, fanTraceStep)}, &traced},
			{fanOpts{perSource: fanPerSource}, &detached},
		} {
			r, err := fanTrial(pool, v.fo)
			if err != nil {
				return nil, err
			}
			rep.tally.merge(&r.t)
			*v.into = append(*v.into, r)
		}
	}
	med := func(rs []*fanResult) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.itemsPerSec())
		}
		return median(xs)
	}
	ipsPlain := med(plain)
	layers := perLayerDefaults(rep)
	spans, dropped := rec.all()
	lt := layerTimes(spans)
	emits := append(append([]float64(nil), lt["source.emit"]...), lt["relay.emit"]...)
	hops := append(append([]float64(nil), lt["pipeline.hop.relay"]...), lt["pipeline.hop.sink"]...)
	layers.set("pipeline.emit_ns", mean(emits))
	layers.set("pipeline.hop_us_p50", quantile(hops, 0.5)/1e3)
	layers.set("pipeline.hop_us_p99", quantile(hops, 0.99)/1e3)
	layers.set("pipeline.process_self_ns.relay", mean(lt["relay.process"]))
	layers.set("pipeline.process_self_ns.sink", mean(lt["sink.process"]))
	var p99 []float64
	for _, r := range plain {
		p99 = append(p99, r.lat.p99)
	}
	layers.set("sink.latency_p99_ms", median(p99))
	var gets, miss, delivered, e2e float64
	qs := map[string][]queueCounters{}
	var walls float64
	var phases []phase
	for _, r := range plain {
		phases = append(phases, r.ph)
		gets += r.poolGets
		miss += r.poolMiss
		delivered += r.delivered
		e2e += r.e2eCount
		walls += r.ph.wallNS
		for k, q := range r.queues {
			qs[k] = append(qs[k], q)
		}
	}
	if gets > 0 {
		layers.set("pipeline.pool_miss_ratio", miss/gets)
	}
	for stage, list := range qs {
		queueLayer(layers, stage, list, walls)
	}
	layers.set("obs.tax_ratio", med(detached)/ipsPlain)
	layers.set("obs.e2e_observations_ratio", e2e/delivered)
	layers.set("trace.overhead_ratio", ipsPlain/med(traced))
	runtimeLayer(layers, phases, delivered)

	// The ledger charges the traced trials' spans against those same
	// trials' wall and CPU time. Emit spans include the time a push spent
	// parked on a full queue, which is waiting, not work: the queues' own
	// stall counters take it out.
	var stall = map[string]float64{}
	var tItems float64
	for _, r := range traced {
		tItems += r.delivered
		for k, q := range r.queues {
			stall[k] += q.pushStallNS
		}
	}
	rows := map[string]float64{
		"source.emit less push stall": mean(lt["source.emit"]) - stall["relay"]/tItems,
		"relay.process self":          mean(lt["relay.process"]),
		"relay.emit less push stall":  mean(lt["relay.emit"]) - stall["sink"]/tItems,
		"sink.process self (verify)":  mean(lt["sink.process"]),
	}
	rep.ledger = ledger("inproc_fanin", rows, 1e9/med(traced), median(cpuPerItem(traced)), layers)
	path, err := writeSpans(".bench_build/spans", fmt.Sprintf("inproc_fanin-seed%d.jsonl", o.seed), spans)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("trials: %d observed, %d traced, %d unobserved; %d spans written to %s (%d dropped)",
		len(plain), len(traced), len(detached), len(spans), path, dropped))
	return rep, nil
}

func cpuPerItem(rs []*fanResult) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.ph.cpuNS/r.delivered)
	}
	return xs
}
