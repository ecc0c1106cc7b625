package pipeline

import (
	"fmt"
	"strconv"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/obs"
)

// SetObservability attaches an observability bundle to the engine. At Run
// every stage is instrumented into the bundle's registry, hot-path spans go
// to its tracer, adaptation epochs land in its audit trail, and lifecycle
// events in its log. Nil (the default) means unobserved: the only residual
// cost on the data path is a pair of nil checks. Calling it after Run has
// started has no effect.
func (e *Engine) SetObservability(o *obs.Observability) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.o = o
}

// ObsLabels is the identity label set every metric of this stage carries in
// a registry; consumers (internal/monitor) use it to look the series up.
func (s *Stage) ObsLabels() map[string]string {
	return map[string]string{
		"stage":    s.id,
		"instance": strconv.Itoa(s.instance),
		"node":     s.Node(),
	}
}

// Instrument publishes the stage's counters into reg as scrape-time callback
// series, so the hot path keeps updating only its existing atomic stats.
// Registration is idempotent and replaces callbacks, which is exactly what a
// restarted stage instance needs: the series names stay stable while the
// callbacks follow the live (reset) counters. A nil registry is a no-op.
func (s *Stage) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lb := s.ObsLabels()

	reg.CounterFunc("gates_stage_packets_in_total",
		"Data packets consumed by the stage.", lb,
		func() float64 { return float64(s.Stats().PacketsIn) })
	reg.CounterFunc("gates_stage_items_in_total",
		"Data items consumed by the stage.", lb,
		func() float64 { return float64(s.Stats().ItemsIn) })
	reg.CounterFunc("gates_stage_packets_out_total",
		"Data packets emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().PacketsOut) })
	reg.CounterFunc("gates_stage_items_out_total",
		"Data items emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().ItemsOut) })
	reg.CounterFunc("gates_stage_bytes_out_total",
		"Payload bytes emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().BytesOut) })
	reg.CounterFunc("gates_stage_compute_seconds_total",
		"Virtual compute time charged by the stage's processing code.", lb,
		func() float64 { return s.Stats().ComputeCharged.Seconds() })

	reg.GaugeFunc("gates_queue_depth",
		"Current input-queue occupancy d.", lb,
		func() float64 { return float64(s.QueueLen()) })
	reg.CounterFunc("gates_queue_pushed_total",
		"Packets accepted into the input queue.", lb,
		func() float64 { return float64(s.QueueStats().Pushed) })
	reg.CounterFunc("gates_queue_popped_total",
		"Packets drained from the input queue.", lb,
		func() float64 { return float64(s.QueueStats().Popped) })
	reg.CounterFunc("gates_queue_blocked_pushes_total",
		"Pushes that blocked on a full queue (backpressure events).", lb,
		func() float64 { return float64(s.QueueStats().BlockedPushes) })
	reg.CounterFunc("gates_queue_blocked_pops_total",
		"Pops that blocked on an empty queue.", lb,
		func() float64 { return float64(s.QueueStats().BlockedPops) })
	reg.GaugeFunc("gates_queue_high_water",
		"Highest input-queue occupancy observed.", lb,
		func() float64 { return float64(s.QueueStats().HighWater) })
	reg.CounterFunc(obs.MetricQueueDropped,
		"Items rejected by TryPush on a full input queue.", lb,
		func() float64 { return float64(s.QueueStats().Dropped) })
	reg.GaugeFunc(obs.MetricQueueCapacity,
		"Input buffer capacity C.", lb,
		func() float64 { return float64(s.in.Cap()) })

	// Backpressure stall series for the attribution engine. These are
	// wall-clock seconds (see queue.Stats): a parked goroutine advances no
	// virtual schedule, so /bottlenecks compares them to a wall epoch.
	reg.CounterFunc(obs.MetricQueuePushStall,
		"Wall-clock seconds producers spent parked on this stage's full input buffer.", lb,
		func() float64 { return float64(s.QueueStats().PushStallNS) / 1e9 })
	reg.CounterFunc(obs.MetricQueuePopStall,
		"Wall-clock seconds the drain loop spent parked on an empty input buffer.", lb,
		func() float64 { return float64(s.QueueStats().PopStallNS) / 1e9 })
	reg.CounterFunc(obs.MetricEmitStall,
		"Wall-clock seconds the stage's emit paths spent blocked on full downstream buffers.", lb,
		func() float64 { return s.Stats().EmitStall.Seconds() })

	// Topology gauges: one constant series per outbound edge so the
	// attribution engine (and any scraper) can walk the deployed graph.
	// outs is fixed by the builder before Run, so reading it here is as
	// safe as the fanout callback below.
	for _, out := range s.outs {
		reg.GaugeFunc(obs.MetricEdge,
			"Deployed topology edge (constant 1).",
			map[string]string{"from": s.id, "to": out.to.id},
			func() float64 { return 1 })
	}

	reg.GaugeFunc(obs.MetricFanout,
		"Number of downstream edges; 0 marks a pipeline sink.", lb,
		func() float64 { return float64(len(s.outs)) })

	reg.CounterFunc("gates_adaptations_total",
		"Completed adjustment epochs (ΔP law applications).", lb,
		func() float64 { return float64(s.ctrl.Adjustments()) })
	reg.GaugeFunc("gates_d_tilde",
		"Long-term average queue size factor d̃.", lb,
		func() float64 { return s.ctrl.DTilde() })

	// Instrument can be called both by Engine.Run (before the stage
	// goroutines exist) and by a monitor watching an already-running
	// engine; the first hookup wins. batchSec is set under the lock: the
	// drain loop only reads it when the engine was observed at Run time,
	// in which case it was set before the goroutines started. The latency
	// scratches are read by every drain loop whenever present, so they
	// are published with one atomic store the loop loads per batch.
	h := reg.Histogram("gates_stage_batch_seconds",
		"Virtual time to process and flush one drained input batch (sampled).",
		nil, lb)
	hop := reg.Histogram(obs.MetricHopLatency,
		"Virtual time from a packet's emission upstream to its consumption here (queue wait + link transfer).",
		obs.LatencyBuckets, lb)
	e2e := reg.Histogram(obs.MetricE2ELatency,
		"Virtual time from a packet lineage's birth at a source to its consumption here (source-to-here latency).",
		obs.LatencyBuckets, lb)
	s.mu.Lock()
	if s.batchSec == nil {
		s.batchSec = h
	}
	s.mu.Unlock()
	s.lat.CompareAndSwap(nil, &latencyScratch{hop: hop.Scratch(), e2e: e2e.Scratch()})
}

// recordAdjustment turns one AdjustDetailed epoch into an audit event and a
// debug log line. λ and μ are items per virtual second measured since the
// previous adjustment epoch (zero on the first).
func (s *Stage) recordAdjustment(now time.Time, res adapt.AdjustResult, lambda, mu float64) {
	if s.o == nil {
		return
	}
	ev := obs.AdaptationEvent{
		At:       now,
		Stage:    s.id,
		Instance: s.instance,
		Node:     s.Node(),
		QueueLen: s.QueueLen(),
		DTilde:   res.DTilde,
		Lambda:   lambda,
		Mu:       mu,
		T1:       res.T1,
		T2:       res.T2,
		DeltaP:   res.DeltaP,
	}
	for _, adj := range res.Adjustments {
		ev.Params = append(ev.Params, obs.ParamDelta{Param: adj.Param, Old: adj.Old, New: adj.New})
	}
	s.o.Trail().Record(ev)
	if len(res.Adjustments) > 0 {
		s.o.FlightRec().Record(obs.FlightEvent{
			Kind:     obs.FlightAdaptation,
			Stage:    s.id,
			Instance: s.instance,
			Node:     s.Node(),
			Detail:   fmt.Sprintf("ΔP=%.3g adjusted %d param(s)", res.DeltaP, len(res.Adjustments)),
			Value:    res.DeltaP,
		})
	}
	s.o.Log().Debug("adaptation adjusted",
		"stage", s.id, "instance", s.instance, "node", s.Node(),
		"d_tilde", res.DTilde, "t1", res.T1, "t2", res.T2,
		"delta_p", res.DeltaP, "lambda", lambda, "mu", mu)
}

// epochRates derives λ/μ (items per virtual second) from the stage counters
// accumulated since the previous adjustment epoch, mirroring how
// internal/monitor derives rates between samples.
type epochRates struct {
	at       time.Time
	itemsIn  uint64
	itemsOut uint64
	primed   bool
}

func (r *epochRates) advance(now time.Time, stats StageStats) (lambda, mu float64) {
	if r.primed {
		if dt := now.Sub(r.at).Seconds(); dt > 0 {
			lambda = float64(stats.ItemsIn-r.itemsIn) / dt
			mu = float64(stats.ItemsOut-r.itemsOut) / dt
		}
	}
	r.at, r.itemsIn, r.itemsOut, r.primed = now, stats.ItemsIn, stats.ItemsOut, true
	return lambda, mu
}
