package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/gates-middleware/gates/internal/pipeline"
)

// endToEnd lists the untraced run's metrics, every one reported by every
// workload. The latency tail is p90: per-window p99 on tcp_paced swung
// 1.5-11 ms inside one run, so p99 is printed as a note and reported by the
// traced run instead.
var endToEnd = []struct{ name, unit string }{
	{"items_per_s", "items/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ns_per_item", "ns"},
	{"alloc_bytes_per_item", "B"},
	{"setup_s", "s"},
}

// sampleTrial records one closed-loop trial's throughput, cost and set-up
// samples. Set-up is timed outside the trial's steal measurement and is
// never set aside.
func sampleTrial(r *report, items float64, ph phase, setupNS float64) {
	r.sample("items_per_s", items/(ph.wallNS/1e9), ph.steal)
	r.sample("cpu_ns_per_item", ph.cpuNS/items, ph.steal)
	r.sample("alloc_bytes_per_item", ph.alloc/items, ph.steal)
	r.sample("setup_s", setupNS/1e9, 0)
}

// sampleLatency records one trial's or window's latency quantiles; p99 rides
// along for the run's notes.
func sampleLatency(r *report, lat latQ, steal float64) {
	r.sample("latency_p50_ms", lat.p50, steal)
	r.sample("latency_p90_ms", lat.p90, steal)
	r.sample("latency_p99_ms", lat.p99, steal)
}

// perLayer lists the traced run's metrics. Every workload reports all of
// them; a layer the workload bypasses reads 0 and is named in the run's
// "bypassed" note.
var perLayer = []struct{ name, unit string }{
	{"pipeline.emit_ns", "ns"},
	{"pipeline.hop_us_p50", "us"},
	{"pipeline.hop_us_p99", "us"},
	{"pipeline.process_self_ns.relay", "ns"},
	{"pipeline.process_self_ns.sink", "ns"},
	{"pipeline.pool_miss_ratio", "ratio"},
	{"queue.push_stall_frac.relay", "ratio"},
	{"queue.pop_stall_frac.relay", "ratio"},
	{"queue.blocked_pushes_per_kpkt.relay", "count"},
	{"queue.push_stall_frac.sink", "ratio"},
	{"queue.pop_stall_frac.sink", "ratio"},
	{"queue.blocked_pushes_per_kpkt.sink", "count"},
	{"queue.push_stall_frac.central", "ratio"},
	{"queue.pop_stall_frac.central", "ratio"},
	{"queue.blocked_pushes_per_kpkt.central", "count"},
	{"transport.send_us_p50", "us"},
	{"transport.wire_us_p50", "us"},
	{"transport.deliver_us_p99", "us"},
	{"transport.bytes_per_frame", "B"},
	{"source.generator_lag_p99_ms", "ms"},
	{"sink.latency_p99_ms", "ms"},
	{"netsim.bytes_per_item", "B"},
	{"apps.summarize_ns_per_item", "ns"},
	{"apps.merge_us_per_summary", "us"},
	{"apps.topk_accuracy", "score"},
	{"apps.items_per_s_gomaxprocs1", "items/s"},
	{"obs.tax_ratio", "ratio"},
	{"obs.e2e_observations_ratio", "ratio"},
	{"service.launch_ms", "ms"},
	{"runtime.gc_cycles_per_mitem", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"ledger.unexplained_cpu_ns_per_item", "ns"},
}

// layerSet fills a report's per-layer metrics, tracking which were
// measured.
type layerSet struct {
	r        *report
	units    map[string]string
	measured map[string]bool
}

// perLayerDefaults sets every per-layer metric to 0 and returns the set
// that overrides the measured ones.
func perLayerDefaults(r *report) *layerSet {
	l := &layerSet{r: r, units: make(map[string]string), measured: make(map[string]bool)}
	r.layers = l
	for _, m := range perLayer {
		l.units[m.name] = m.unit
		r.set(m.name, 0, m.unit)
	}
	return l
}

func (l *layerSet) set(name string, v float64) {
	unit, ok := l.units[name]
	if !ok {
		panic("gatesbench: unknown per-layer metric " + name) // a typo in this program
	}
	l.r.set(name, v, unit)
	l.measured[name] = true
}

// bypassed names the per-layer metrics this workload left at 0.
func (l *layerSet) bypassed() string {
	var out []string
	for _, m := range perLayer {
		if !l.measured[m.name] {
			out = append(out, m.name)
		}
	}
	return strings.Join(out, " ")
}

// queueCounters is the slice of a stage's queue counters the per-layer
// metrics use.
type queueCounters struct {
	pushStallNS, popStallNS, blockedPushes, pushed float64
}

func queueStats(st *pipeline.Stage) queueCounters {
	q := st.QueueStats()
	return queueCounters{float64(q.PushStallNS), float64(q.PopStallNS), float64(q.BlockedPushes), float64(q.Pushed)}
}

// queueLayer sets one stage's queue metrics from its per-trial counters:
// stall fractions of the measured wall time, blocked pushes per thousand
// pushed packets.
func queueLayer(l *layerSet, stage string, qs []queueCounters, wallNS float64) {
	var push, pop, blocked, pushed float64
	for _, q := range qs {
		push += q.pushStallNS
		pop += q.popStallNS
		blocked += q.blockedPushes
		pushed += q.pushed
	}
	if wallNS > 0 {
		l.set("queue.push_stall_frac."+stage, push/wallNS)
		l.set("queue.pop_stall_frac."+stage, pop/wallNS)
	}
	if pushed > 0 {
		l.set("queue.blocked_pushes_per_kpkt."+stage, blocked*1000/pushed)
	}
}

// spread summarizes a run's per-trial samples of one metric.
func spread(name string, xs []float64) string {
	return fmt.Sprintf("%s over %d samples: min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", name, len(xs),
		quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ledger lays the traced layers' self time per item next to the measured
// wall and CPU time per item. The gap is printed, not hidden: it is the
// cost no span covers (drain loops, scheduler wakeups, GC) — negative when
// spans count time a goroutine spent runnable but descheduled. It also sets
// ledger.unexplained_cpu_ns_per_item.
func ledger(workload string, rows map[string]float64, wallPerItem, cpuPerItem float64, l *layerSet) map[string]any {
	var sum float64
	names := make([]string, 0, len(rows))
	for k, v := range rows {
		sum += v
		names = append(names, k)
	}
	sort.Strings(names)
	table := make([]string, 0, len(names))
	for _, k := range names {
		table = append(table, fmt.Sprintf("%s=%.1f", k, rows[k]))
	}
	l.set("ledger.unexplained_cpu_ns_per_item", cpuPerItem-sum)
	return map[string]any{
		"workload":                     workload,
		"self_ns_per_item":             table,
		"sum_self_ns_per_item":         sum,
		"wall_ns_per_item":             wallPerItem,
		"cpu_ns_per_item":              cpuPerItem,
		"unexplained_wall_ns_per_item": wallPerItem - sum,
		"unexplained_cpu_ns_per_item":  cpuPerItem - sum,
	}
}
