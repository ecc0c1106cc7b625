package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
)

// gatedTestSource emits values but parks after half of them until released.
type gatedTestSource struct {
	values  []int
	reached chan struct{}
	release chan struct{}
}

func (s *gatedTestSource) Run(_ *Context, out *Emitter) error {
	for i, v := range s.values {
		if i == len(s.values)/2 {
			close(s.reached)
			<-s.release
		}
		if err := out.EmitValue(v, 8); err != nil {
			return err
		}
	}
	return nil
}

// TestPauseResumeDeliversEverything pauses a processor mid-stream (while
// its upstream keeps producing into the queue), resumes it, and checks
// every value arrives exactly once in order.
func TestPauseResumeDeliversEverything(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	values := make([]int, 200)
	for i := range values {
		values[i] = i
	}
	src := &gatedTestSource{values: values, reached: make(chan struct{}), release: make(chan struct{})}
	sink := &collector{}
	s1, _ := eng.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true})
	s2, _ := eng.AddProcessorStage("sink", 0, sink, StageConfig{DisableAdaptation: true, QueueCapacity: 500})
	if err := eng.Connect(s1, s2, nil); err != nil {
		t.Fatal(err)
	}

	if got := s2.State(); got != StateInit {
		t.Fatalf("pre-run state %v, want init", got)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	<-src.reached
	if err := s2.Pause(context.Background()); err != nil {
		t.Fatalf("pause: %v", err)
	}
	if got := s2.State(); got != StatePaused {
		t.Fatalf("state after Pause %v, want paused", got)
	}
	midCount := len(sink.values())

	// A second pause of a paused stage must refuse.
	if err := s2.Pause(context.Background()); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("double pause = %v", err)
	}
	// Nothing flows while paused, even as the source keeps pushing.
	close(src.release)
	time.Sleep(10 * time.Millisecond)
	if got := len(sink.values()); got != midCount {
		t.Fatalf("paused sink consumed %d -> %d values", midCount, got)
	}

	if err := s2.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := s2.Resume(); err == nil {
		t.Fatal("resuming a running stage succeeded")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != len(values) {
		t.Fatalf("delivered %d values, want %d", len(got), len(values))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("value %d = %d, out of order", i, v)
		}
	}
	if got := s2.State(); got != StateStopped {
		t.Fatalf("terminal state %v, want stopped", got)
	}
	if err := s2.Pause(context.Background()); err == nil {
		t.Fatal("pausing a stopped stage succeeded")
	}
}

// TestPauseWakesBlockedPop pauses a processor that is blocked on an empty
// queue: the pause must not wait for a packet that will never come.
func TestPauseWakesBlockedPop(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	src := &gatedTestSource{values: []int{1, 2}, reached: make(chan struct{}), release: make(chan struct{})}
	sink := &collector{}
	s1, _ := eng.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true})
	s2, _ := eng.AddProcessorStage("sink", 0, sink, StageConfig{DisableAdaptation: true})
	if err := eng.Connect(s1, s2, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	<-src.reached // sink has drained the first value and is blocked popping
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s2.Pause(ctx); err != nil {
		t.Fatalf("pause of a pop-blocked stage: %v", err)
	}
	if err := s2.Resume(); err != nil {
		t.Fatal(err)
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sink.values(); len(got) != 2 {
		t.Fatalf("delivered %v, want both values", got)
	}
}

// snapSource is a source with snapshotable state.
type snapSource struct{ n int }

func (s *snapSource) Run(*Context, *Emitter) error { return nil }
func (s *snapSource) Snapshot() ([]byte, error)    { return []byte{byte(s.n)}, nil }
func (s *snapSource) Restore(b []byte) error       { s.n = int(b[0]); return nil }

// TestSnapshotterDetection checks Snapshotter() finds user code that
// implements the interface and rejects code that does not.
func TestSnapshotterDetection(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	plain, _ := eng.AddProcessorStage("plain", 0, &collector{}, StageConfig{})
	if _, ok := plain.Snapshotter(); ok {
		t.Error("plain processor reported a snapshotter")
	}
	src, _ := eng.AddSourceStage("snap", 0, &snapSource{n: 7}, StageConfig{})
	sn, ok := src.Snapshotter()
	if !ok {
		t.Fatal("snapshotable source not detected")
	}
	b, err := sn.Snapshot()
	if err != nil || len(b) != 1 || b[0] != 7 {
		t.Fatalf("snapshot = %v, %v", b, err)
	}
	if !src.IsSource() || plain.IsSource() {
		t.Error("IsSource misreports")
	}
}

// TestRelinkSwapsLiveEdges rewires a running stage's edges through Relink
// and checks subsequent traffic uses the new link.
func TestRelinkSwapsLiveEdges(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	src := &gatedTestSource{values: []int{1, 2, 3, 4}, reached: make(chan struct{}), release: make(chan struct{})}
	sink := &collector{}
	s1, _ := eng.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true})
	s2, _ := eng.AddProcessorStage("sink", 0, sink, StageConfig{DisableAdaptation: true})
	if err := eng.Connect(s1, s2, nil); err != nil { // starts local: no link
		t.Fatal(err)
	}
	link := netsim.NewLink(clk, netsim.LinkConfig{}) // unlimited, but counting
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	<-src.reached
	eng.Relink(s2, func(_, _ *Stage) *netsim.Link { return link })
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if link.Stats().Bytes == 0 {
		t.Error("relinked edge carried no bytes")
	}
	if got := sink.values(); len(got) != 4 {
		t.Fatalf("delivered %v", got)
	}
}

// TestPauseWakesBlockedBatchedPush pins the batched twin of the
// pushPausable guarantee: a source wedged mid-Flush against the full queue
// of a paused downstream must still be pausable (the blocked batch push is
// a pause boundary), and after both stages resume the retried suffix
// delivers every value exactly once, in order.
func TestPauseWakesBlockedBatchedPush(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	values := make([]int, 64)
	for i := range values {
		values[i] = i
	}
	src := &testSource{values: values}
	sink := &collector{}
	s1, _ := eng.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true, BatchSize: 8})
	s2, _ := eng.AddProcessorStage("sink", 0, sink, StageConfig{DisableAdaptation: true, QueueCapacity: 4})
	if err := eng.Connect(s1, s2, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	// Hold the sink paused: its 4-slot queue fills and the source's
	// 8-packet flush necessarily blocks mid-batch with packets in hand.
	if err := s2.Pause(context.Background()); err != nil {
		t.Fatalf("pause sink: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s2.in.Len() < s2.in.Cap() {
		if time.Now().After(deadline) {
			t.Fatal("sink queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The regression: before pushBatchPausable this Pause hung forever —
	// the source could not reach a pause boundary while blocked inside
	// PushBatchCtx, and nobody was draining the paused sink.
	pctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Pause(pctx); err != nil {
		t.Fatalf("pause of a source blocked in a batched flush: %v", err)
	}
	if !s1.PausedMidEmit() {
		t.Error("source parked mid-flush not flagged PausedMidEmit")
	}

	if err := s1.Resume(); err != nil {
		t.Fatalf("resume source: %v", err)
	}
	if err := s2.Resume(); err != nil {
		t.Fatalf("resume sink: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != len(values) {
		t.Fatalf("delivered %d values, want %d (retried suffix lost or duplicated)", len(got), len(values))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("value %d = %d, out of order after mid-batch park", i, v)
		}
	}
}
