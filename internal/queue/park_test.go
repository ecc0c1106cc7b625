package queue

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestParkingUnderOneContextAllocatesNothing pins the cached cancellation
// watcher: once a context has parked on a queue, parking again under the
// same live context — what a stage's drain loop does for a whole pause
// epoch — allocates nothing. A watcher started per blocked call costs a
// goroutine, a channel and a closure every time.
func TestParkingUnderOneContextAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		// park blocks once on q under ctx; relieve unblocks it from
		// another goroutine once parked counts the wait.
		park    func(q *Queue[int]) error
		relieve func(q *Queue[int]) error
		parked  func(Stats) uint64
		full    bool
	}{
		{
			name: "PopCtx",
			park: func(q *Queue[int]) error {
				_, err := q.PopCtx(ctx)
				return err
			},
			relieve: func(q *Queue[int]) error { return q.Push(1) },
			parked:  func(s Stats) uint64 { return s.BlockedPops },
		},
		{
			name: "PopBatchCtx",
			park: func(q *Queue[int]) error {
				var dst [4]int
				_, err := q.PopBatchCtx(ctx, dst[:], len(dst))
				return err
			},
			relieve: func(q *Queue[int]) error { return q.Push(1) },
			parked:  func(s Stats) uint64 { return s.BlockedPops },
		},
		{
			name:    "PushCtx",
			park:    func(q *Queue[int]) error { return q.PushCtx(ctx, 1) },
			relieve: func(q *Queue[int]) error { _, err := q.Pop(); return err },
			parked:  func(s Stats) uint64 { return s.BlockedPushes },
			full:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int](1)
			if tc.full {
				if err := q.Push(0); err != nil {
					t.Fatal(err)
				}
			}
			kick := make(chan struct{})
			relieved := make(chan error, 1)
			go func() {
				var want uint64
				for range kick {
					want++
					for tc.parked(q.Stats()) < want {
						runtime.Gosched()
					}
					relieved <- tc.relieve(q)
				}
			}()
			defer close(kick)
			allocs := testing.AllocsPerRun(100, func() {
				kick <- struct{}{}
				if err := tc.park(q); err != nil {
					t.Fatal(err)
				}
				if err := <-relieved; err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s parked under one live context: %.1f allocs per park, want 0", tc.name, allocs)
			}
		})
	}
}

// TestReplaceablePopCtx models the stage Pause/Resume pattern across three
// pause epochs: a pop parked on an empty queue is woken by canceling its
// epoch context and consumes nothing, the next epoch's fresh context picks
// up exactly where the stream left off, and each ended context's watcher
// goes away with it.
func TestReplaceablePopCtx(t *testing.T) {
	pops := map[string]func(q *Queue[int], ctx context.Context) (int, error){
		"PopCtx": func(q *Queue[int], ctx context.Context) (int, error) { return q.PopCtx(ctx) },
		"PopBatchCtx": func(q *Queue[int], ctx context.Context) (int, error) {
			var dst [1]int
			_, err := q.PopBatchCtx(ctx, dst[:], 1)
			return dst[0], err
		},
	}
	for name, pop := range pops {
		t.Run(name, func(t *testing.T) {
			q := New[int](8)
			for epoch := 0; epoch < 3; epoch++ {
				ctx, cancel := context.WithCancel(context.Background())
				woke := make(chan error, 1)
				go func() {
					_, err := pop(q, ctx)
					woke <- err
				}()
				waitFor(t, func() bool { return q.Stats().BlockedPops == uint64(epoch+1) })
				cancel() // pause: wake the pop without consuming
				if err := <-woke; !errors.Is(err, context.Canceled) {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				waitFor(t, func() bool {
					q.mu.Lock()
					defer q.mu.Unlock()
					return len(q.watched) == 0
				})
				if err := q.Push(epoch); err != nil {
					t.Fatal(err)
				}
				// resume: a fresh context sees the pushed item.
				next, stop := context.WithCancel(context.Background())
				v, err := pop(q, next)
				stop()
				if err != nil || v != epoch {
					t.Fatalf("epoch %d: resumed pop = %d, %v", epoch, v, err)
				}
			}
			if st := q.Stats(); st.Pushed != 3 || st.Popped != 3 {
				t.Fatalf("stats %+v, want 3 pushed and 3 popped", st)
			}
		})
	}
}

// TestBlockedCountersOnePerWait checks the wait-episode accounting: a call
// that parks once counts exactly one blocked event on its own side and none
// on the other, whatever the call's granularity.
func TestBlockedCountersOnePerWait(t *testing.T) {
	cases := []struct {
		name     string
		full     bool // pre-fill so the call parks on a full queue
		park     func(q *Queue[int]) error
		relieve  func(q *Queue[int]) error
		wantPush uint64
		wantPop  uint64
	}{
		{
			name:    "Pop",
			park:    func(q *Queue[int]) error { _, err := q.Pop(); return err },
			relieve: func(q *Queue[int]) error { return q.Push(7) },
			wantPop: 1,
		},
		{
			name: "PopBatch",
			park: func(q *Queue[int]) error {
				_, err := q.PopBatch(make([]int, 4), 4)
				return err
			},
			relieve: func(q *Queue[int]) error { return q.PushBatch([]int{7, 8}) },
			wantPop: 1,
		},
		{
			name:     "Push",
			full:     true,
			park:     func(q *Queue[int]) error { return q.Push(7) },
			relieve:  func(q *Queue[int]) error { _, err := q.Pop(); return err },
			wantPush: 1,
		},
		{
			name:     "PushBatch",
			full:     true,
			park:     func(q *Queue[int]) error { return q.PushBatch([]int{7}) },
			relieve:  func(q *Queue[int]) error { _, err := q.PopBatch(make([]int, 2), 2); return err },
			wantPush: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int](2)
			if tc.full {
				if err := q.PushBatch([]int{1, 2}); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() { done <- tc.park(q) }()
			waitFor(t, func() bool {
				st := q.Stats()
				return st.BlockedPushes+st.BlockedPops > 0
			})
			if err := tc.relieve(q); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := q.Stats(); st.BlockedPushes != tc.wantPush || st.BlockedPops != tc.wantPop {
				t.Fatalf("BlockedPushes=%d BlockedPops=%d, want %d and %d",
					st.BlockedPushes, st.BlockedPops, tc.wantPush, tc.wantPop)
			}
		})
	}
}
