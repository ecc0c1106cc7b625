package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	gates "github.com/gates-middleware/gates"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/workload"
)

// countsamps_4src: the paper's distributed count-samps (§5.2), launched from
// its XML descriptor onto four source nodes and a central node. Each source
// replays its Zipf sub-stream csReplays times; summarizers keep a fixed
// 100-entry sketch with a zero cost model, links are unlimited, and the
// facade's default batch of 1 applies. Closed loop: every launch runs its
// streams to completion as fast as the pipeline drains them.
const (
	csSources    = 4
	csBaseItems  = 25_000 // per sub-stream, the paper's size
	csReplays    = 40     // replays per launch: 1M items per source
	csChunk      = 25     // items per packet, as the paper's StreamSource
	csSummary    = 100
	csFlushEvery = 1000
	csTraceStep  = 61 // traced launches trace one chunk in this many
	// Floors the merged top-10 must meet against the exact counts. With a
	// 100-entry sketch over these replayed Zipf(1.5) sub-streams the score
	// measured 89.2 to 99.0 and membership 0.9 to 1.0 across seeds 1-30.
	csMinScore      = 85
	csMinMembership = 0.8
)

const csXML = `
<application name="count-samps-distributed">
  <stage id="stream" code="bench/stream" source="true" instances="4">
    <nearSource>stream-1</nearSource><nearSource>stream-2</nearSource>
    <nearSource>stream-3</nearSource><nearSource>stream-4</nearSource>
  </stage>
  <stage id="summarize" code="bench/summarize" instances="4">
    <nearSource>stream-1</nearSource><nearSource>stream-2</nearSource>
    <nearSource>stream-3</nearSource><nearSource>stream-4</nearSource>
  </stage>
  <stage id="central" code="bench/merge"><requirement minCPU="2"/></stage>
  <connection from="stream" to="summarize" fanout="pairwise"/>
  <connection from="summarize" to="central"/>
</application>`

// csCost keeps the application's wire sizes and drops its modelled compute
// time, so the run measures the host's own work.
var csCost = countsamps.CostModel{ItemWireSize: 256, EntryWireSize: 100}

// csInputs are a run's generated sub-streams, cut into packet-sized chunks
// (already boxed as packet values, so sources allocate nothing per packet),
// the chunks' sums, and the exact merged counts over all replays.
type csInputs struct {
	streams   [][]int
	chunks    [][]any // per sub-stream, each a []int slice of streams
	chunkSums [][]int
	truth     map[int]int
}

func newCSInputs(seed int64) *csInputs {
	in := &csInputs{}
	parts := make([]map[int]int, csSources)
	for i := 0; i < csSources; i++ {
		s := workload.Take(workload.NewZipf(seed*1_000_003+int64(i)*31+5, 1.5, 50_000), csBaseItems)
		in.streams = append(in.streams, s)
		var chunks []any
		var sums []int
		for start := 0; start < len(s); start += csChunk {
			chunk := s[start:min(start+csChunk, len(s))]
			sum := 0
			for _, v := range chunk {
				sum += v
			}
			chunks = append(chunks, chunk)
			sums = append(sums, sum)
		}
		in.chunks = append(in.chunks, chunks)
		in.chunkSums = append(in.chunkSums, sums)
		c := workload.Counts(s)
		for v := range c {
			c[v] *= csReplays
		}
		parts[i] = c
	}
	in.truth = workload.MergeCounts(parts...)
	return in
}

// replaySource emits its sub-stream csReplays times in csChunk-item packets.
type replaySource struct {
	inst   int32
	chunks []any
	tr     *tracing
}

func (s *replaySource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	buf := s.tr.buf()
	seq := uint64(0)
	for r := 0; r < csReplays; r++ {
		for _, chunk := range s.chunks {
			n := len(chunk.([]int))
			pkt := pipeline.NewPacket(chunk, n, n*csCost.ItemWireSize)
			if !s.tr.sampled(seq) {
				if err := out.Emit(pkt); err != nil {
					return err
				}
				seq++
				continue
			}
			t0 := s.tr.rec.now()
			err := out.Emit(pkt)
			t1 := s.tr.rec.now()
			buf.add("stream.emit", "", s.tr.id(s.inst, seq), t0, t1)
			s.tr.srcRet.put(s.inst, seq, t1)
			if err != nil {
				return err
			}
			seq++
		}
	}
	return nil
}

// checkedSummarizer verifies the stream->summarize edge (packet order by
// the source emitter's sequence, and each chunk's identity and content
// against that sequence) before handing the chunk to the application's
// Summarizer. Traced launches time every Process call.
type checkedSummarizer struct {
	*countsamps.Summarizer
	in     *csInputs
	inst   int
	check  *edgeCheck
	t      tally
	items  int64
	busyNS int64
	tr     *tracing
	buf    *spanBuf
}

func (s *checkedSummarizer) Init(ctx *pipeline.Context) error {
	s.inst = ctx.Instance()
	s.buf = s.tr.buf()
	return s.Summarizer.Init(ctx)
}

func (s *checkedSummarizer) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	chunk, ok := pkt.Value.([]int)
	if !ok {
		return fmt.Errorf("summarize: got %T", pkt.Value)
	}
	seq := pkt.Seq
	s.check.observe(pkt.SourceInstance, seq)
	s.items += int64(len(chunk))
	base := s.in.streams[s.inst]
	k := int(seq % uint64(len(s.in.chunkSums[s.inst])))
	sum := 0
	for _, v := range chunk {
		sum += v
	}
	if pkt.SourceInstance != s.inst || len(chunk) == 0 || &chunk[0] != &base[k*csChunk] || sum != s.in.chunkSums[s.inst][k] {
		s.t.corrupt++
		s.t.note("summarize/%d: chunk %d does not match sub-stream %d", s.inst, seq, pkt.SourceInstance)
	}
	if s.tr == nil {
		return s.Summarizer.Process(ctx, pkt, out)
	}
	t0 := s.tr.rec.now()
	err := s.Summarizer.Process(ctx, pkt, out)
	t1 := s.tr.rec.now()
	s.busyNS += t1 - t0
	if s.tr.sampled(seq) {
		s.tr.hop(s.buf, "pipeline.hop.summarize", s.tr.srcRet, int32(s.inst), seq, t0)
		s.buf.add("summarize.process", "", s.tr.id(int32(s.inst), seq), t0, t1)
	}
	return err
}

// checkedMerger verifies the summarize->central edge (each summarizer's
// summaries in order, and the bytes they were charged on the links) before
// handing each summary to the application's SummaryMerger.
type checkedMerger struct {
	*countsamps.SummaryMerger
	check     *edgeCheck
	t         tally
	bytes     int64
	summaries int64
	lastSpan  [csSources]uint64
	latNS     []float64
	busyNS    int64
	timed     bool
}

func (m *checkedMerger) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	sm, ok := pkt.Value.(*countsamps.Summary)
	if !ok {
		return fmt.Errorf("merge: got %T", pkt.Value)
	}
	m.latNS = append(m.latNS, float64(time.Since(pkt.Birth)))
	m.check.observe(pkt.SourceInstance, pkt.Seq)
	m.summaries++
	size := pkt.WireSize
	if size <= 0 {
		size = 64 // the stage's default packet size
	}
	m.bytes += int64(size)
	if sm.SourceInstance != pkt.SourceInstance || sm.SourceInstance < 0 || sm.SourceInstance >= csSources ||
		sm.Span < m.lastSpan[sm.SourceInstance] {
		m.t.corrupt++
		m.t.note("central: summary %d from summarize/%d out of place (instance %d, span %d)", pkt.Seq, pkt.SourceInstance, sm.SourceInstance, sm.Span)
	} else {
		m.lastSpan[sm.SourceInstance] = sm.Span
	}
	if !m.timed {
		return m.SummaryMerger.Process(ctx, pkt, out)
	}
	t0 := time.Now()
	err := m.SummaryMerger.Process(ctx, pkt, out)
	m.busyNS += int64(time.Since(t0))
	return err
}

// csResult is one launch's measurements.
type csResult struct {
	setupNS, launchNS float64
	ph                phase
	items             float64
	t                 tally
	acc               metrics.Accuracy
	linkBytes         float64
	summaries         float64
	lat               latQ
	e2eCount          float64
	summarizeNS       float64
	mergeNS           float64
	centralQ          queueCounters
	summarizeQ        queueCounters // the four instances summed
	poolGets          float64
	poolMiss          float64
}

func (r *csResult) itemsPerSec() float64 { return r.items / (r.ph.wallNS / 1e9) }

// csLaunch builds the grid, launches the descriptor, waits for completion
// and verifies the result.
func csLaunch(in *csInputs, seed int64, observed bool, tr *tracing) (*csResult, error) {
	res := &csResult{}
	// Each launch starts from a collected heap, so one launch's garbage
	// does not land in the next one's measurement.
	runtime.GC()
	t0 := time.Now()
	g, err := gates.NewGrid(gates.GridOptions{})
	if err != nil {
		return nil, err
	}
	var ob *gates.Observability
	if observed {
		ob = g.NewObservability(gates.ObsConfig{})
	}
	for i := 1; i <= csSources; i++ {
		if err := g.AddNode(gates.Node{
			Name: fmt.Sprintf("src-%d", i), CPUPower: 1, MemoryMB: 512, Slots: 2,
			Sources: []string{fmt.Sprintf("stream-%d", i)},
		}); err != nil {
			return nil, err
		}
	}
	if err := g.AddNode(gates.Node{Name: "central", CPUPower: 4, MemoryMB: 4096, Slots: 4}); err != nil {
		return nil, err
	}
	links := make([]*gates.Link, csSources)
	for i := range links {
		links[i] = g.ConnectNodes(fmt.Sprintf("src-%d", i+1), "central", gates.LinkConfig{})
	}
	merger := &checkedMerger{SummaryMerger: &countsamps.SummaryMerger{Cost: csCost},
		check: newEdgeCheck("summarize->central", csSources), timed: tr != nil,
		latNS: make([]float64, 0, csSources*(csReplays*csBaseItems/csFlushEvery+1))}
	sums := make([]*checkedSummarizer, csSources)
	if err := g.RegisterSource("bench/stream", func(i int) gates.Source {
		return &replaySource{inst: int32(i), chunks: in.chunks[i], tr: tr}
	}); err != nil {
		return nil, err
	}
	if err := g.RegisterProcessor("bench/summarize", func(i int) gates.Processor {
		sums[i] = &checkedSummarizer{
			Summarizer: countsamps.NewSummarizer(countsamps.SummarizerConfig{
				Cost: csCost, FlushEvery: csFlushEvery, SummarySize: csSummary, Seed: seed + 1000,
			}),
			in: in, check: newEdgeCheck(fmt.Sprintf("stream->summarize/%d", i), csSources), tr: tr,
		}
		return sums[i]
	}); err != nil {
		return nil, err
	}
	if err := g.RegisterProcessor("bench/merge", func(int) gates.Processor { return merger }); err != nil {
		return nil, err
	}
	tuning := func(stage string, _ int) gates.StageConfig {
		return gates.StageConfig{DisableAdaptation: stage == "stream"}
	}
	poolBefore := pipeline.ReadPoolStats()
	before := takeSample()
	l0 := time.Now()
	app, err := g.Launch(context.Background(), csXML, tuning)
	if err != nil {
		return nil, err
	}
	res.launchNS = float64(time.Since(l0))
	res.setupNS = float64(time.Since(t0))
	if err := app.Wait(); err != nil {
		return nil, err
	}
	res.ph = since(before)
	poolAfter := pipeline.ReadPoolStats()
	res.poolGets = float64(poolAfter.Gets - poolBefore.Gets)
	res.poolMiss = float64(poolAfter.Misses - poolBefore.Misses)

	perSource := uint64(csReplays * len(in.chunkSums[0]))
	res.t.attempted = int64(csSources * csReplays * csBaseItems)
	for i, s := range sums {
		if s == nil {
			res.t.fail("summarize/%d was never deployed", i)
			continue
		}
		sent := make([]uint64, csSources)
		sent[i] = perSource
		res.t.merge(&s.t)
		res.t.closeEdge(s.check, sent)
		res.items += float64(s.items)
		res.summarizeNS += float64(s.busyNS)
	}
	wantSummaries := uint64(csReplays*csBaseItems/csFlushEvery + 1)
	res.t.merge(&merger.t)
	res.t.closeEdge(merger.check, []uint64{wantSummaries, wantSummaries, wantSummaries, wantSummaries})
	for i, span := range merger.lastSpan {
		if span != csReplays*csBaseItems {
			res.t.fail("summarize/%d's last summary covers %d items, want %d", i, span, csReplays*csBaseItems)
		}
	}
	if n := merger.Sources(); n != csSources {
		res.t.fail("merger saw %d sources, want %d", n, csSources)
	}
	for _, l := range links {
		res.linkBytes += float64(l.Stats().Bytes)
	}
	// Each link also carries its summarizer's end-of-stream marker, charged
	// at the default packet size.
	if want := merger.bytes + csSources*64; int64(res.linkBytes) != want {
		res.t.fail("links carried %v bytes, want %d (summaries plus end-of-stream markers)", res.linkBytes, want)
	}
	res.summaries = float64(merger.summaries)
	res.lat = latencyQuantiles(merger.latNS)
	res.mergeNS = float64(merger.busyNS)
	res.acc = metrics.TopKAccuracy(in.truth, merger.TopK(10), 10)
	if res.acc.Score() < csMinScore || res.acc.Membership < csMinMembership {
		res.t.fail("top-10 accuracy %s below the floor (score %d, membership %.2f)", res.acc, csMinScore, csMinMembership)
	}
	central := app.Stages["central"][0]
	res.centralQ = queueStats(central)
	for _, st := range app.Stages["summarize"] {
		q := queueStats(st)
		res.summarizeQ.pushStallNS += q.pushStallNS
		res.summarizeQ.popStallNS += q.popStallNS
		res.summarizeQ.blockedPushes += q.blockedPushes
		res.summarizeQ.pushed += q.pushed
	}
	if ob != nil {
		n, ok := ob.Registry.Value(obs.MetricE2ELatency, central.ObsLabels())
		res.e2eCount = n
		if !ok || n != res.summaries {
			res.t.fail("central %s histogram holds %v observations for %v summaries", obs.MetricE2ELatency, n, res.summaries)
		}
	}
	return res, nil
}

func runCountSamps(o opts) (*report, error) {
	in := newCSInputs(o.seed)
	rep := &report{}
	end := deadline(time.Now(), o)
	// Every launch over the same inputs must reach the same answer: the
	// sketches are seeded and the merger keeps each source's latest summary.
	var first *metrics.Accuracy
	checkAcc := func(r *csResult) {
		if first == nil {
			first = &r.acc
		} else if r.acc.Membership != first.Membership || math.Abs(r.acc.Frequency-first.Frequency) > 1e-9 {
			// The merger sums per-source estimates in map order, so the
			// frequency score may differ in its last bits; nothing more.
			r.t.fail("launch accuracy (membership %v, frequency %v) differs from the run's first launch (%v, %v)",
				r.acc.Membership, r.acc.Frequency, first.Membership, first.Frequency)
		}
		rep.tally.merge(&r.t)
	}
	if !o.trace {
		// Latency here is the job's: launch to merged answer, per launch. Its
		// p50 and p90 over this process's launches are one sample each.
		var launches []obsv
		var summaryP99 []float64
		for n := 0; n < 3 || time.Now().Before(end); n++ {
			r, err := csLaunch(in, o.seed, true, nil)
			if err != nil {
				return nil, err
			}
			checkAcc(r)
			sampleTrial(rep, r.items, r.ph, r.setupNS)
			launches = append(launches, obsv{r.ph.wallNS / 1e6, r.ph.steal})
			summaryP99 = append(summaryP99, r.lat.p99)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d launches of %d items; accuracy %s; summary merge latency p99 %.3f ms (median launch)",
			len(launches), csSources*csReplays*csBaseItems, first, median(summaryP99)))
		// The part's latency samples carry the steal of the most disturbed
		// launch they are taken from.
		ms, _, steal := undisturbed(launches)
		rep.sample("latency_p50_ms", quantile(ms, 0.5), steal)
		rep.sample("latency_p90_ms", quantile(ms, 0.9), steal)
		return rep, nil
	}

	// Traced run: rounds of four launches — observed, observed and traced,
	// unobserved, and observed on one core (GOMAXPROCS=1).
	rec := newRecorder()
	var plain, traced, detached, single []*csResult
	perSource := uint64(csReplays * len(in.chunkSums[0]))
	for len(plain) < 2 || time.Now().Before(end) {
		for _, v := range []struct {
			observed bool
			tr       *tracing
			procs    int // GOMAXPROCS for the launch; 0 keeps the current one
			into     *[]*csResult
		}{
			{true, nil, 0, &plain},
			{true, newTracing(rec, len(traced), csSources, perSource, csTraceStep), 0, &traced},
			{false, nil, 0, &detached},
			{true, nil, 1, &single},
		} {
			prev := runtime.GOMAXPROCS(v.procs)
			r, err := csLaunch(in, o.seed, v.observed, v.tr)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, err
			}
			checkAcc(r)
			*v.into = append(*v.into, r)
		}
	}
	med := func(rs []*csResult, f func(*csResult) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	ips := func(r *csResult) float64 { return r.itemsPerSec() }
	layers := perLayerDefaults(rep)
	spans, dropped := rec.all()
	lt := layerTimes(spans)
	layers.set("pipeline.emit_ns", mean(lt["stream.emit"]))
	layers.set("pipeline.hop_us_p50", quantile(lt["pipeline.hop.summarize"], 0.5)/1e3)
	layers.set("pipeline.hop_us_p99", quantile(lt["pipeline.hop.summarize"], 0.99)/1e3)
	var gets, miss, items, linkBytes, walls float64
	var qs []queueCounters
	var phases []phase
	for _, r := range plain {
		gets += r.poolGets
		miss += r.poolMiss
		items += r.items
		linkBytes += r.linkBytes
		walls += r.ph.wallNS
		qs = append(qs, r.centralQ)
		phases = append(phases, r.ph)
	}
	if gets > 0 {
		layers.set("pipeline.pool_miss_ratio", miss/gets)
	}
	queueLayer(layers, "central", qs, walls)
	layers.set("netsim.bytes_per_item", linkBytes/items)
	summarizePerItem := med(traced, func(r *csResult) float64 { return r.summarizeNS / r.items })
	mergePerSummary := med(traced, func(r *csResult) float64 { return r.mergeNS / r.summaries })
	layers.set("apps.summarize_ns_per_item", summarizePerItem)
	layers.set("apps.merge_us_per_summary", mergePerSummary/1e3)
	layers.set("apps.topk_accuracy", first.Score())
	layers.set("sink.latency_p99_ms", med(plain, func(r *csResult) float64 { return r.lat.p99 }))
	layers.set("apps.items_per_s_gomaxprocs1", med(single, ips))
	layers.set("obs.tax_ratio", med(detached, ips)/med(plain, ips))
	var e2e, summaries float64
	for _, r := range plain {
		e2e += r.e2eCount
		summaries += r.summaries
	}
	layers.set("obs.e2e_observations_ratio", e2e/summaries)
	layers.set("service.launch_ms", med(plain, func(r *csResult) float64 { return r.launchNS })/1e6)
	layers.set("trace.overhead_ratio", med(plain, ips)/med(traced, ips))
	runtimeLayer(layers, phases, items)

	// As in inproc_fanin, the ledger uses the traced launches and takes the
	// queues' push-stall time (waiting on a full queue) out of the spans
	// that block on it: stream emits into summarize, summarize's summary
	// emits into central.
	stallPerItem := func(pick func(*csResult) queueCounters) float64 {
		return med(traced, func(r *csResult) float64 { return pick(r).pushStallNS / r.items })
	}
	rows := map[string]float64{
		"stream.emit less push stall": mean(lt["stream.emit"])/csChunk -
			stallPerItem(func(r *csResult) queueCounters { return r.summarizeQ }),
		"summarize.process less push stall": summarizePerItem -
			stallPerItem(func(r *csResult) queueCounters { return r.centralQ }),
		"merge.process": med(traced, func(r *csResult) float64 { return r.mergeNS / r.items }),
	}
	rep.ledger = ledger("countsamps_4src", rows, 1e9/med(traced, ips),
		med(traced, func(r *csResult) float64 { return r.ph.cpuNS / r.items }), layers)
	path, err := writeSpans(".bench_build/spans", fmt.Sprintf("countsamps_4src-seed%d.jsonl", o.seed), spans)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("launches: %d observed, %d traced, %d unobserved, %d at GOMAXPROCS=1; accuracy %s; %d spans written to %s (%d dropped)",
		len(plain), len(traced), len(detached), len(single), first, len(spans), path, dropped))
	return rep, nil
}
