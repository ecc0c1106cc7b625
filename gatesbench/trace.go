package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one packet share
// its trace id (see traceID); parent names the span of the same trace that
// contains this one ("" for a root).
type span struct {
	name, parent string
	trace        uint64
	start, end   int64 // nanoseconds since the recorder's epoch
}

// spanBuf is one goroutine's span buffer; only its owner appends.
type spanBuf struct {
	spans   []span
	dropped int
}

// maxSpansPerBuf bounds the memory a traced run can pin.
const maxSpansPerBuf = 200_000

func (b *spanBuf) add(name, parent string, trace uint64, start, end int64) {
	if b == nil {
		return
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{name: name, parent: parent, trace: trace, start: start, end: end})
}

// recorder owns every span buffer of a traced run. A nil *recorder is the
// untraced run: buffers are nil and every add is a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// buf registers a new buffer for one goroutine.
func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// all returns every recorded span. Call only once writers have stopped.
func (r *recorder) all() (out []span, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bufs {
		out = append(out, b.spans...)
		dropped += b.dropped
	}
	return out, dropped
}

// layerTimes returns, per span name, the self time of each span in
// nanoseconds: its duration minus the durations of its children.
func layerTimes(spans []span) map[string][]float64 {
	type key struct {
		trace uint64
		name  string
	}
	child := make(map[key]int64)
	for _, s := range spans {
		if s.parent != "" {
			child[key{s.trace, s.parent}] += s.end - s.start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.end - s.start - child[key{s.trace, s.name}]
		out[s.name] = append(out[s.name], float64(self))
	}
	return out
}

// writeSpans writes every span as one JSON line under dir.
func writeSpans(dir, file string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			Parent  string `json:"parent,omitempty"`
			Trace   string `json:"trace"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.name, s.parent, fmt.Sprintf("%d:%d:%d", s.trace>>56, s.trace>>48&0xff, s.trace&(1<<48-1)), s.start, s.end}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracing is one traced trial's state: the run's recorder, the trial number
// that qualifies its trace ids, and the emit-return stamps hop spans start
// from — srcRet for the source's emissions, midRet for the next stage's
// (relay emit on inproc_fanin, Egress send on tcp_paced). A nil *tracing is
// an untraced trial.
type tracing struct {
	rec    *recorder
	trial  int
	srcRet *stampTable
	midRet *stampTable
}

func newTracing(rec *recorder, trial, sources int, perSource, stride uint64) *tracing {
	return &tracing{rec: rec, trial: trial,
		srcRet: newStampTable(sources, perSource, stride),
		midRet: newStampTable(sources, perSource, stride)}
}

// sampled reports whether the packet with this sequence number is traced.
func (t *tracing) sampled(seq uint64) bool { return t != nil && t.srcRet.sampled(seq) }

// buf registers a span buffer for the calling goroutine; nil when untraced.
func (t *tracing) buf() *spanBuf {
	if t == nil {
		return nil
	}
	return t.rec.buf()
}

func (t *tracing) id(src int32, seq uint64) uint64 { return traceID(t.trial, src, seq) }

// hop records the span from an upstream emit return, read from ret, to
// this Process entry. A packet delivered while its own Emit call was still
// flushing has no return stamp yet (or a later one); its hop is recorded
// as empty.
func (t *tracing) hop(buf *spanBuf, name string, ret *stampTable, src int32, seq uint64, entry int64) {
	start := ret.get(src, seq)
	if start == 0 || start > entry {
		start = entry
	}
	buf.add(name, "", t.id(src, seq), start, entry)
}

// traceID is the packet identity, qualified by the trial that sent it, used
// as a trace id.
func traceID(trial int, src int32, seq uint64) uint64 {
	return uint64(trial)<<56 | uint64(src&0xff)<<48 | seq&(1<<48-1)
}

// stampTable carries one timestamp per sampled packet from the goroutine
// that takes it to the one that reads it (an emit return read at the
// downstream Process entry). A zero entry means "not yet stored".
type stampTable struct {
	stride uint64
	t      [][]int64 // per source, per sampled sequence number
	mu     sync.Mutex
}

func newStampTable(sources int, perSource uint64, stride uint64) *stampTable {
	st := &stampTable{stride: stride, t: make([][]int64, sources)}
	for i := range st.t {
		st.t[i] = make([]int64, perSource/stride+1)
	}
	return st
}

func (st *stampTable) sampled(seq uint64) bool { return seq%st.stride == 0 }

func (st *stampTable) put(src int32, seq uint64, ns int64) {
	i := seq / st.stride
	st.mu.Lock()
	if int(src) < len(st.t) && i < uint64(len(st.t[src])) {
		st.t[src][i] = ns
	}
	st.mu.Unlock()
}

func (st *stampTable) get(src int32, seq uint64) int64 {
	i := seq / st.stride
	st.mu.Lock()
	defer st.mu.Unlock()
	if int(src) < len(st.t) && i < uint64(len(st.t[src])) {
		return st.t[src][i]
	}
	return 0
}
