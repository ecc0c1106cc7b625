#!/bin/sh
# The full CI lane: vet, static analysis (when staticcheck is installed),
# build, plain tests, the race-detector and stress lanes, a coverage run
# emitting coverage.out, a short benchmark smoke, and the
# observability-overhead guard. Run from anywhere; it cds to the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== stress =="
# The concurrent packages under the race detector, several passes each:
# interleavings a single pass rarely reaches (a drain loop racing a late
# Instrument, a checkpoint pause landing mid-emit) show up here.
go test -race -count=4 ./internal/queue ./internal/pipeline ./internal/service \
  ./internal/transport ./internal/obs .

echo "== migration smoke =="
# Live re-deployment lane: the deterministic manual-clock zero-loss
# migration tests under the race detector, then the bandwidth-collapse
# experiment end to end in quick mode.
go test -race -run 'Migration|Migrate|PlanApply|PauseResume|Relink' \
  ./internal/service ./internal/pipeline
go run ./cmd/gates-experiments -exp migration -quick -scale 4000

echo "== endpoint smoke =="
# Observability-plane lane: a real gates-node must answer its probe and
# metrics endpoints, and a real gates-launcher must serve the merged
# /cluster view, over actual HTTP. Fixed high ports keep the lane
# shell-only; the Go tests cover the same surface on ephemeral ports.
if command -v curl >/dev/null 2>&1; then
	smoke_tmp="$(mktemp -d)"
	trap 'rm -rf "$smoke_tmp"' EXIT
	go build -o "$smoke_tmp/gates-node" ./cmd/gates-node
	go build -o "$smoke_tmp/gates-launcher" ./cmd/gates-launcher
	node_obs=127.0.0.1:19771
	launch_obs=127.0.0.1:19772

	"$smoke_tmp/gates-node" -listen 127.0.0.1:19770 -stage compsteer/analyzer \
	  -obs-listen "$node_obs" &
	node_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$node_obs/healthz" >/dev/null
	curl -sf --retry 5 --retry-delay 1 "http://$node_obs/readyz" >/dev/null
	curl -sf "http://$node_obs/metrics" | grep -q '^gates_'
	curl -sf "http://$node_obs/flightrecorder" | grep -q '"events"'
	curl -sf "http://$node_obs/bottlenecks" | grep -q '"summary"'
	kill "$node_pid" 2>/dev/null || true
	wait "$node_pid" 2>/dev/null || true
	echo "gates-node endpoints ok"

	smoke_xml='<application name="smoke">
	  <stage id="sim" code="compsteer/sim" source="true"/>
	  <stage id="sampler" code="compsteer/sampler"/>
	  <stage id="analysis" code="compsteer/analyzer"/>
	  <connection from="sim" to="sampler"/>
	  <connection from="sampler" to="analysis"/>
	</application>'
	# ~350 virtual seconds at 100x gives a few wall seconds to poll /cluster
	# while the run is live.
	"$smoke_tmp/gates-launcher" -config "$smoke_xml" -scale 100 \
	  -obs-listen "$launch_obs" -slo-p99 1h >/dev/null &
	launch_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$launch_obs/healthz" >/dev/null
	curl -sf "http://$launch_obs/cluster" | grep -q '"slo"'
	curl -sf "http://$launch_obs/flightrecorder" | grep -q '"events"'
	curl -sf "http://$launch_obs/bottlenecks" | grep -q '"summary"'
	wait "$launch_pid"
	echo "gates-launcher /cluster ok"
else
	echo "curl not installed; skipping endpoint smoke"
fi

echo "== policy lane =="
# Policy control-plane lane. Over real HTTP: GET the active document,
# hot-reload a tightened one via POST, reject an invalid one (400, active
# version rolls back to the survivor), and read the decision log; then a
# launcher run driven by a policy file must log placement and SLO decisions
# citing it. Finally the hot-reload experiment proves a mid-run reload
# visibly changes placement, with the decision log naming the version that
# fired.
if command -v curl >/dev/null 2>&1; then
	pol_obs=127.0.0.1:19773
	"$smoke_tmp/gates-node" -listen 127.0.0.1:19774 -stage compsteer/analyzer \
	  -obs-listen "$pol_obs" &
	pol_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$pol_obs/healthz" >/dev/null
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "default"'
	curl -sf -X POST -d '{"version":"ci-v2","rebalance":{"threshold":3}}' \
	  "http://$pol_obs/policy" | grep -q '"version": "ci-v2"'
	bad_code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
	  -d '{"rebalance":{"threshold":-1}}' "http://$pol_obs/policy")"
	[ "$bad_code" = "400" ] || { echo "policy guard: invalid reload got HTTP $bad_code, want 400"; exit 1; }
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "ci-v2"'
	curl -sf "http://$pol_obs/decisions" | grep -q '"kind": "policy"'
	kill "$pol_pid" 2>/dev/null || true
	wait "$pol_pid" 2>/dev/null || true
	echo "gates-node /policy hot-reload + rollback + /decisions ok"

	cat > "$smoke_tmp/policy.json" <<-'EOF'
	{"version": "ci-file", "placement": {"topology_aware": true}, "slo": {"target_p99": "1h"}}
	EOF
	"$smoke_tmp/gates-launcher" -config "$smoke_xml" -scale 100 \
	  -obs-listen "$pol_obs" -policy "$smoke_tmp/policy.json" >/dev/null &
	pol_launch_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$pol_obs/healthz" >/dev/null
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "ci-file"'
	# The endpoint binds before Launch plans, so give placement decisions a
	# moment to land.
	for _i in 1 2 3 4 5 6 7 8 9 10; do
		curl -sf "http://$pol_obs/decisions" | grep -q '"kind": "placement"' && break
		sleep 0.2
	done
	curl -sf "http://$pol_obs/decisions" | grep -q '"kind": "placement"'
	curl -sf "http://$pol_obs/cluster" >/dev/null  # a collect evaluates the SLO under ci-file
	curl -sf "http://$pol_obs/decisions" | grep -q '"kind": "slo"'
	curl -sf "http://$pol_obs/decisions" | grep -q '"policy_version": "ci-file"'
	wait "$pol_launch_pid"
	echo "gates-launcher policy-driven decisions ok"
else
	echo "curl not installed; skipping policy endpoint smoke"
fi
go run ./cmd/gates-experiments -exp policy -quick -scale 4000 | tee /dev/stderr \
  | grep -q 'policy-hotreload: placement changed src-1 -> helper under v2'

echo "== timeseries lane =="
# The autoscaler's eyes over real HTTP: a live launcher must serve a
# windowed /timeseries document with at least two sampling epochs, fold
# real CPU profile rounds into non-zero per-stage attribution, carry pprof
# "stage" labels on its goroutines, and merge stage trends into /cluster.
if command -v curl >/dev/null 2>&1; then
	ts_obs=127.0.0.1:19775
	"$smoke_tmp/gates-launcher" -config "$smoke_xml" -scale 50 \
	  -obs-listen "$ts_obs" -profile-every 200ms -slo-p99 1h >/dev/null &
	ts_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$ts_obs/healthz" >/dev/null
	# Sampling epochs are 500ms of virtual time (wall milliseconds at 50x),
	# but CPU attribution needs a completed wall-clock profile round — poll.
	ts_doc=""
	for _i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do
		ts_doc="$(curl -sf "http://$ts_obs/timeseries")" || ts_doc=""
		echo "$ts_doc" | grep -Eq '"epochs": ([2-9]|[0-9]{2,})' \
		  && echo "$ts_doc" | grep -Eq '"cpu_seconds": (0\.0*[1-9]|[1-9])' \
		  && break
		sleep 0.3
	done
	echo "$ts_doc" | grep -Eq '"epochs": ([2-9]|[0-9]{2,})' \
	  || { echo "timeseries lane: fewer than 2 sampling epochs"; exit 1; }
	echo "$ts_doc" | grep -q '"trends"' \
	  || { echo "timeseries lane: /timeseries missing trends"; exit 1; }
	echo "$ts_doc" | grep -Eq '"cpu_seconds": (0\.0*[1-9]|[1-9])' \
	  || { echo "timeseries lane: no non-zero per-stage CPU attribution"; exit 1; }
	# The window filter parses and still serves the document shape.
	curl -sf "http://$ts_obs/timeseries?window=2s" | grep -q '"epoch_seconds"'
	# Every stage and control loop runs under a pprof stage label.
	curl -sf "http://$ts_obs/debug/pprof/goroutine?debug=1" | grep -q '"stage":' \
	  || { echo "timeseries lane: no pprof stage labels on goroutines"; exit 1; }
	# The merged cluster view carries node-stamped trends.
	curl -sf "http://$ts_obs/cluster" | grep -q '"trends"' \
	  || { echo "timeseries lane: /cluster missing merged trends"; exit 1; }
	wait "$ts_pid"
	echo "gates-launcher /timeseries + CPU attribution + pprof labels ok"
else
	echo "curl not installed; skipping timeseries lane"
fi

echo "== bottleneck attribution smoke =="
# A pipeline with one deliberately slow stage; the backpressure attribution
# engine must name it.
go run ./cmd/gates-experiments -exp constriction -quick | tee /dev/stderr \
  | grep -q 'bottleneck: constrict'

echo "== chaos lane =="
# Fault-tolerance lane: the deterministic manual-clock kill/recover tests
# and the concurrent fault-injection hammer under the race detector, then
# the kill-at-t experiment end to end — the node hosting a summarizer dies
# mid-stream and the recovery controller must detect, re-place, restore the
# checkpointed sketch, and replay the black-holed interval. The verdict
# line asserts exactly one recovery, a state restore, no ring-retention
# gap, full sink sequence coverage, and accuracy within 0.1 of the
# fault-free run.
go test -race \
  -run 'TestChaos|TestHealthMonitor|TestFault|TestReplay|TestDropDup|TestEmitLoss|TestEmitReorder|TestNetworkKill|TestNetworkPartition' \
  ./internal/service ./internal/pipeline ./internal/netsim
chaos_out="$(go run ./cmd/gates-experiments -exp chaos -quick | tee /dev/stderr)"
echo "$chaos_out" | grep -q 'chaos-verdict: recoveries=1 restored=true gap=false coverage=1.000'
echo "$chaos_out" | grep -q 'accuracy_ok=true'

echo "== coverage =="
go test -coverprofile=coverage.out -covermode=atomic ./...
go tool cover -func=coverage.out | tail -1

echo "== short benchmarks =="
go test -run '^$' -bench 'BenchmarkPipelineThroughput$|BenchmarkBatchSizeSweep|BenchmarkQueue' \
  -benchtime 100ms .

echo "== zero-alloc guard =="
# The pooled hot path must stay allocation-free: the steady state of
# BenchmarkPipelineThroughput and every BenchmarkBatchSizeSweep size runs
# entirely on recycled packets and preallocated inbox slots, so any
# allocs/op above zero means a pooling regression (a new per-packet
# allocation or a packet escaping its recycle point). Benchtime is long
# enough that per-run setup (engine construction inside the timed region)
# amortizes to zero.
alloc_raw="$(go test -run '^$' -bench 'BenchmarkPipelineThroughput$|BenchmarkBatchSizeSweep' \
  -benchmem -benchtime 500ms .)"
echo "$alloc_raw"
echo "$alloc_raw" | awk '
/^Benchmark/ {
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") {
        n++
        if ($(i - 1) + 0 > 0) { printf "guard: %s reports %s allocs/op\n", $1, $(i - 1); bad = 1 }
    }
}
END {
    if (n == 0) { print "guard: no allocs/op columns found"; exit 1 }
    if (bad) { print "guard: hot path must be allocation-free"; exit 1 }
    printf "guard: %d hot-path benchmarks at 0 allocs/op\n", n
}'

echo "== transport codec alloc guard =="
# One encode plus decode of a benchmark-shaped packet (eight ints plus ids)
# on one connection's encoder/decoder pair. Type descriptors cross a
# connection once, so the steady state is a handful of allocations: the
# decoded Value, the stage name, gob's per-message state. A codec that
# re-sends type descriptors in every frame takes ~276 allocs/op; above 16
# means per-frame codec state has crept back.
codec_raw="$(go test -run '^$' -bench 'BenchmarkCodecRoundTrip$' -benchmem \
  -benchtime 20000x ./internal/transport)"
echo "$codec_raw"
echo "$codec_raw" | awk '
/^BenchmarkCodecRoundTrip/ {
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") { n++; allocs = $(i - 1) + 0 }
}
END {
    if (n == 0) { print "guard: BenchmarkCodecRoundTrip reported no allocs/op"; exit 1 }
    if (allocs > 16) { printf "guard: codec round trip at %d allocs/op, bound 16\n", allocs; exit 1 }
    printf "guard: codec round trip at %d allocs/op (bound 16)\n", allocs
}'

echo "== observability overhead guard =="
# The observed hot path must stay close to the untraced one:
# BenchmarkPipelineThroughputObserved runs the identical batch=16 pipeline
# with the full observability bundle attached (metrics callbacks
# registered, tracer at its default 1-in-64 sampling, per-packet e2e/hop
# latency histograms recording through the batch-flushed scratches).
# Observability's absolute cost was ~16 ns/packet — almost all of it the
# per-packet latency bucketing, see DESIGN.md §9; the sub-octave bucketing
# LUT (8 cells per binary octave, so the trailing scan is at most one
# step on the latency layout) cut it to ~12 ns, which is why the bound
# below is 1.35 rather than the 1.50 it started at. Any real stage work
# dilutes the relative cost further; a regression that breaks the bound is
# a real one (a leaked always-on span, bucketing gone per-item instead of
# batch-flushed). The estimate pairs the i-th run of each series and takes
# the minimum *paired* ratio: box load drifts on a seconds scale, so
# independent minima can pick a quiet-window base against a loaded-window
# observed run and inflate the ratio; a paired quiet window cancels out.
guard_raw="$(go test -run '^$' \
  -bench 'BenchmarkBatchSizeSweep/batch=16$|BenchmarkPipelineThroughputObserved' \
  -benchtime 500ms -count 5 .)"
echo "$guard_raw"
echo "$guard_raw" | awk '
/^BenchmarkBatchSizeSweep/             { base[nbase++] = $3 }
/^BenchmarkPipelineThroughputObserved/ { obs[nobs++] = $3 }
END {
    if (nbase == 0 || nobs == 0) { print "guard: benchmarks missing"; exit 1 }
    for (i = 0; i < nbase && i < nobs; i++) {
        r = obs[i] / base[i]
        if (!n || r < ratio) { ratio = r; base_at = base[i]; obs_at = obs[i] }
        n++
    }
    printf "guard: untraced %.1f ns/op, observed %.1f ns/op, ratio %.3f (best of %d paired runs)\n", base_at, obs_at, ratio, n
    if (ratio > 1.35) { print "guard: observability overhead above 35% bound"; exit 1 }
}'

echo "CI lane green"
