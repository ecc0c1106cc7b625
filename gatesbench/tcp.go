package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	gates "github.com/gates-middleware/gates"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/transport"
)

// tcp_paced: a sender engine (source -> egress) and a receiver engine
// (ingress -> sink) in one process, joined by one loopback connection and
// wired the way gates-node wires them: an unbatched Egress, an Ingress with
// a 256-packet hand-off, per-packet drain. Open loop: the source emits on a
// fixed schedule whatever the pipeline does, and latency runs from each
// packet's due time to sink Process entry.
const (
	tcpRate      = 8000 // packets per second offered
	tcpSetups    = 7    // set-ups per part process; setup_s is the median over all parts
	tcpTraceStep = 7    // traced phases trace one packet in this many
	tcpDrain     = 300 * time.Millisecond
	tcpLead      = 5 * time.Millisecond // first due time after the engines start
)

func init() { gob.Register(&Payload{}) }

// windowMark is what the paced source records at each window start.
type windowMark struct {
	cpuNS int64
	host  hostCPU
}

// pacedSource emits packet seq at start + seq/tcpRate, sleeping until each
// due time and recording how late it ran.
type pacedSource struct {
	n     uint64
	start time.Time
	ring  payloadRing
	pool  *valuePool
	lagNS []float64
	// marks are the process CPU time and the host's CPU split at the start
	// of each one-second window of the schedule (every tcpRate packets).
	marks []windowMark
	tr    *tracing
}

func (s *pacedSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	buf := s.tr.buf()
	interval := time.Second / tcpRate
	for seq := uint64(0); seq < s.n; seq++ {
		due := s.start.Add(time.Duration(seq) * interval)
		if d := time.Until(due); d > 0 {
			// A canceled run surfaces at the next Emit; the sleep is one
			// interval at most.
			time.Sleep(d)
		}
		s.lagNS = append(s.lagNS, float64(time.Since(due)))
		if seq%tcpRate == 0 {
			s.marks = append(s.marks, windowMark{processCPU(), readHostCPU()})
		}
		p := s.ring.slot(seq)
		s.pool.fill(p, 0, seq)
		p.Due = due.UnixNano()
		pkt := out.GetPacket()
		pkt.Value = p
		if !s.tr.sampled(seq) {
			if err := out.Emit(pkt); err != nil {
				return err
			}
			continue
		}
		t0 := s.tr.rec.now()
		err := out.Emit(pkt)
		t1 := s.tr.rec.now()
		buf.add("source.emit", "", s.tr.id(0, seq), t0, t1)
		s.tr.srcRet.put(0, seq, t1)
		if err != nil {
			return err
		}
	}
	return nil
}

// timedEgress times each sampled Egress.Process call: encode plus frame
// write.
type timedEgress struct {
	*transport.Egress
	tr  *tracing
	buf *spanBuf
}

func (e *timedEgress) Init(ctx *pipeline.Context) error {
	e.buf = e.tr.buf()
	return e.Egress.Init(ctx)
}

func (e *timedEgress) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	p, ok := pkt.Value.(*Payload)
	if !ok || !e.tr.sampled(p.Seq) {
		return e.Egress.Process(ctx, pkt, out)
	}
	seq := p.Seq
	tin := e.tr.rec.now()
	err := e.Egress.Process(ctx, pkt, out)
	t1 := e.tr.rec.now()
	e.tr.midRet.put(0, seq, t1)
	e.tr.hop(e.buf, "pipeline.hop.egress", e.tr.srcRet, 0, seq, tin)
	e.buf.add("transport.send", "", e.tr.id(0, seq), tin, t1)
	return err
}

// tcpSink verifies every packet that crossed the connection and measures
// its latency from due time.
type tcpSink struct {
	check     *edgeCheck
	t         tally
	delivered int64
	latNS     []float64
	last      time.Time
}

func (s *tcpSink) Init(*pipeline.Context) error { return nil }

func (s *tcpSink) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	p, ok := pkt.Value.(*Payload)
	if !ok {
		return fmt.Errorf("sink: got %T", pkt.Value)
	}
	now := time.Now()
	s.latNS = append(s.latNS, float64(now.UnixNano()-p.Due))
	s.last = now
	s.delivered++
	s.t.checkPayload(p)
	s.check.observe(int(p.Src), p.Seq)
	return nil
}

func (s *tcpSink) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// tcpRig is one set-up: both engines built and the connection open.
type tcpRig struct {
	send, recv *gates.Engine
	srv        *transport.Server
	cli        *transport.Client
	src        *pacedSource
	sink       *tcpSink
	sinkStage  *pipeline.Stage
	ob         *gates.Observability
	readDone   chan struct{}
}

func (r *tcpRig) close() {
	r.cli.Close()
	<-r.readDone
	r.srv.Close()
}

func buildTCP(pool *valuePool, ring payloadRing, n uint64, observed bool, tr *tracing) (*tcpRig, error) {
	g, err := gates.NewGrid(gates.GridOptions{})
	if err != nil {
		return nil, err
	}
	rig := &tcpRig{readDone: make(chan struct{})}
	if observed {
		rig.ob = g.NewObservability(gates.ObsConfig{})
	}
	rig.recv = g.NewEngine()
	ingress := transport.NewIngress(1, 256)
	handler := ingress.Deliver
	if tr != nil {
		// The server calls the handler from the connection's goroutine,
		// and there is one connection, so the buffer has one writer.
		buf := tr.buf()
		handler = func(m transport.Message) {
			p, ok := m.Value.(*Payload)
			if !ok || !tr.sampled(p.Seq) {
				ingress.Deliver(m)
				return
			}
			tin := tr.rec.now()
			ingress.Deliver(m)
			tout := tr.rec.now()
			tr.hop(buf, "transport.wire", tr.midRet, 0, p.Seq, tin)
			buf.add("transport.deliver", "", tr.id(0, p.Seq), tin, tout)
		}
	}
	rig.srv, err = transport.Listen("127.0.0.1:0", handler)
	if err != nil {
		return nil, err
	}
	in, err := rig.recv.AddSourceStage("ingress", 0, ingress, gates.StageConfig{})
	if err != nil {
		rig.srv.Close()
		return nil, err
	}
	rig.sink = &tcpSink{check: newEdgeCheck("egress->sink", 1), latNS: make([]float64, 0, n)}
	rig.sinkStage, err = rig.recv.AddProcessorStage("sink", 0, rig.sink, gates.StageConfig{})
	if err == nil {
		err = rig.recv.Connect(in, rig.sinkStage, nil)
	}
	if err != nil {
		rig.srv.Close()
		return nil, err
	}

	rig.send = g.NewEngine()
	rig.cli, err = transport.Dial(rig.srv.Addr())
	if err != nil {
		rig.srv.Close()
		return nil, err
	}
	go func() {
		defer close(rig.readDone)
		rig.cli.ReadLoop(func(transport.Message) {})
	}()
	rig.src = &pacedSource{n: n, ring: ring, pool: pool, tr: tr, lagNS: make([]float64, 0, n),
		marks: make([]windowMark, 0, n/tcpRate+2)}
	var eg pipeline.Processor = transport.NewEgress(rig.cli)
	if tr != nil {
		eg = &timedEgress{Egress: transport.NewEgress(rig.cli), tr: tr}
	}
	ss, err := rig.send.AddSourceStage("source", 0, rig.src, gates.StageConfig{})
	if err != nil {
		rig.close()
		return nil, err
	}
	es, err := rig.send.AddProcessorStage("egress", 0, eg, gates.StageConfig{DisableAdaptation: true})
	if err == nil {
		err = rig.send.Connect(ss, es, nil)
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// tcpResult is one measured phase.
type tcpResult struct {
	setupNS   []float64
	ph        phase
	delivered float64
	wallNS    float64 // first due time to last arrival
	latNS     []float64
	lagNS     []float64
	marks     []windowMark
	t         tally
	sinkQ     queueCounters
	poolGets  float64
	poolMiss  float64
	frames    float64
	bytes     float64
	e2eCount  float64
}

func (r *tcpResult) itemsPerSec() float64 { return r.delivered / (r.wallNS / 1e9) }

// tcpPhase sets up setups times (keeping the last rig; at most one
// connection is open at a time), then offers tcpRate packets per second
// for the rest of the given wall time and verifies every delivery.
func tcpPhase(pool *valuePool, ring payloadRing, seconds float64, setups int, observed bool, tr *tracing) (*tcpResult, error) {
	phaseStart := time.Now()
	res := &tcpResult{}
	var rig *tcpRig
	for i := 0; i < setups; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC() // set-up is timed from a collected heap, as in the other workloads
		t0 := time.Now()
		var err error
		// n is fixed once the set-ups are done; until then build with an
		// upper bound (the slices are only capacity).
		rig, err = buildTCP(pool, ring, uint64(seconds*tcpRate)+1, observed, tr)
		if err != nil {
			return nil, err
		}
		res.setupNS = append(res.setupNS, float64(time.Since(t0)))
	}
	left := time.Duration(seconds*float64(time.Second)) - time.Since(phaseStart) - tcpDrain
	if left < 200*time.Millisecond {
		left = 200 * time.Millisecond
	}
	n := uint64(left.Seconds() * tcpRate)
	rig.src.n = n

	runtime.GC() // start the measured phase from a collected heap
	poolBefore := pipeline.ReadPoolStats()
	before := takeSample()
	rig.src.start = time.Now().Add(tcpLead)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recvErr := make(chan error, 1)
	go func() { recvErr <- rig.recv.Run(ctx) }()
	sendErr := rig.send.Run(ctx)
	if sendErr != nil {
		cancel()
	}
	err := errors.Join(sendErr, <-recvErr)
	res.ph = since(before)
	poolAfter := pipeline.ReadPoolStats()
	cs := rig.cli.Stats()
	rig.close()
	if err != nil {
		return nil, err
	}
	res.poolGets = float64(poolAfter.Gets - poolBefore.Gets)
	res.poolMiss = float64(poolAfter.Misses - poolBefore.Misses)
	res.frames, res.bytes = float64(cs.FramesOut), float64(cs.BytesOut)

	s := rig.sink
	res.t = s.t
	res.t.attempted = int64(n)
	res.t.closeEdge(s.check, []uint64{n})
	res.delivered = float64(s.delivered)
	res.wallNS = float64(s.last.Sub(rig.src.start))
	res.latNS = s.latNS
	res.lagNS = rig.src.lagNS
	res.marks = rig.src.marks
	res.sinkQ = queueStats(rig.sinkStage)
	if rig.ob != nil {
		c, ok := rig.ob.Registry.Value(obs.MetricE2ELatency, rig.sinkStage.ObsLabels())
		res.e2eCount = c
		if !ok || c != res.delivered {
			res.t.fail("sink %s histogram holds %v observations for %v delivered packets", obs.MetricE2ELatency, c, res.delivered)
		}
	}
	// An open loop only measures service time while it keeps up: the
	// delivered rate must match the offered one.
	if ips := res.itemsPerSec(); s.delivered > 0 && ips < 0.97*tcpRate {
		res.t.fail("delivered %.0f packets/s against %d offered: backlog grew", ips, tcpRate)
	}
	return res, nil
}

func runTCPPaced(o opts) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	pool := newValuePool(rng, 4096)
	ring := make(payloadRing, ringSize)
	rep := &report{}
	if !o.trace {
		r, err := tcpPhase(pool, ring, o.seconds, tcpSetups, true, nil)
		if err != nil {
			return nil, err
		}
		rep.tally.merge(&r.t)
		// Latency and CPU are taken per one-second window of the schedule
		// (tcpRate packets, so a window's p99 has 80 samples beyond it) and
		// the run reports the median window: a GC-heavy second moves one
		// window, not the run.
		m := r.marks
		if len(m) < 2 || len(r.latNS) < tcpRate {
			return nil, fmt.Errorf("run too short for one %d-packet window", tcpRate)
		}
		for i := 0; i+1 < len(m); i++ {
			steal := stealShare(m[i].host, m[i+1].host)
			rep.sample("cpu_ns_per_item", float64(m[i+1].cpuNS-m[i].cpuNS)/tcpRate, steal)
			if (i+1)*tcpRate <= len(r.latNS) {
				sampleLatency(rep, latencyQuantiles(r.latNS[i*tcpRate:(i+1)*tcpRate]), steal)
			}
		}
		rep.sample("items_per_s", r.itemsPerSec(), r.ph.steal)
		rep.sample("alloc_bytes_per_item", r.ph.alloc/r.delivered, r.ph.steal)
		for _, ns := range r.setupNS {
			rep.sample("setup_s", ns/1e9, 0)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%.0f packets at %d/s; whole-phase latency p50 %.3f ms, p99 %.3f ms; generator lag p99 %.3f ms",
			r.delivered, tcpRate, quantile(r.latNS, 0.5)/1e6, quantile(r.latNS, 0.99)/1e6, quantile(r.lagNS, 0.99)/1e6))
		return rep, nil
	}

	// Traced run: three phases of equal length — observed and untraced,
	// observed and traced, unobserved and untraced. The rate is fixed, so
	// tracing overhead and the observability tax are CPU-per-item ratios.
	rec := newRecorder()
	third := o.seconds / 3
	plain, err := tcpPhase(pool, ring, third, 1, true, nil)
	if err != nil {
		return nil, err
	}
	n := uint64(third*tcpRate) + 1
	traced, err := tcpPhase(pool, ring, third, 1, true, newTracing(rec, 0, 1, n, tcpTraceStep))
	if err != nil {
		return nil, err
	}
	detached, err := tcpPhase(pool, ring, third, 1, false, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range []*tcpResult{plain, traced, detached} {
		rep.tally.merge(&r.t)
	}
	cpu := func(r *tcpResult) float64 { return r.ph.cpuNS / r.delivered }
	layers := perLayerDefaults(rep)
	spans, dropped := rec.all()
	lt := layerTimes(spans)
	layers.set("pipeline.emit_ns", mean(lt["source.emit"]))
	layers.set("pipeline.hop_us_p50", quantile(lt["pipeline.hop.egress"], 0.5)/1e3)
	layers.set("pipeline.hop_us_p99", quantile(lt["pipeline.hop.egress"], 0.99)/1e3)
	layers.set("transport.send_us_p50", quantile(lt["transport.send"], 0.5)/1e3)
	layers.set("transport.wire_us_p50", quantile(lt["transport.wire"], 0.5)/1e3)
	layers.set("transport.deliver_us_p99", quantile(lt["transport.deliver"], 0.99)/1e3)
	if plain.frames > 0 {
		layers.set("transport.bytes_per_frame", plain.bytes/plain.frames)
	}
	layers.set("source.generator_lag_p99_ms", quantile(plain.lagNS, 0.99)/1e6)
	layers.set("sink.latency_p99_ms", quantile(plain.latNS, 0.99)/1e6)
	if plain.poolGets > 0 {
		layers.set("pipeline.pool_miss_ratio", plain.poolMiss/plain.poolGets)
	}
	queueLayer(layers, "sink", []queueCounters{plain.sinkQ}, plain.ph.wallNS)
	layers.set("obs.tax_ratio", cpu(plain)/cpu(detached))
	layers.set("obs.e2e_observations_ratio", plain.e2eCount/plain.delivered)
	layers.set("trace.overhead_ratio", cpu(traced)/cpu(plain))
	runtimeLayer(layers, []phase{plain.ph}, plain.delivered)

	rows := map[string]float64{
		"source.emit":       mean(lt["source.emit"]),
		"transport.send":    mean(lt["transport.send"]),
		"transport.deliver": mean(lt["transport.deliver"]),
	}
	rep.ledger = ledger("tcp_paced", rows, 1e9/traced.itemsPerSec(), cpu(traced), layers)
	rep.ledger["note"] = "open loop: wall ns/item is the schedule interval, so the CPU column is the one the rows should add up to; " +
		"no span covers the server's frame read and gob decode, the Ingress hand-off to its stage, the sink, or GC, so they make up the gap"
	path, err := writeSpans(".bench_build/spans", fmt.Sprintf("tcp_paced-seed%d.jsonl", o.seed), spans)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("phases of %.1fs: observed, traced, unobserved; %d spans written to %s (%d dropped)",
		third, len(spans), path, dropped))
	return rep, nil
}
