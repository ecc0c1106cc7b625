package queue

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSnapshotReflectsContents checks Snapshot returns the queued items in
// FIFO order without consuming them, including after head wrap-around.
func TestSnapshotReflectsContents(t *testing.T) {
	q := New[int](4)
	if got := q.Snapshot(); len(got) != 0 {
		t.Fatalf("empty queue snapshot %v", got)
	}
	for i := 1; i <= 3; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Snapshot(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("snapshot %v, want [1 2 3]", got)
	}
	// Wrap the ring: consume two, add two more.
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	if got := q.Snapshot(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("post-wrap snapshot %v, want [3 4 5]", got)
	}
	// The snapshot did not consume anything.
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("pop after snapshot = %d, want 3", v)
	}
	if q.Len() != 2 {
		t.Fatalf("len after snapshot+pop = %d, want 2", q.Len())
	}
}

// TestSnapshotWithLiveProducers exercises the migration pattern under the
// race detector: producers keep pushing while Snapshot, Len and Stats are
// sampled. With the consumer paused, producers park on backpressure and the
// snapshot agrees with what the resumed consumer pops; with the consumer
// live, every snapshot is still a FIFO-ordered slice of the stream.
func TestSnapshotWithLiveProducers(t *testing.T) {
	const producers = 3
	q := New[int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := q.Push(p*1_000_000 + i); err != nil {
					return // ErrClosed ends the producer
				}
			}
		}(p)
	}
	// inOrder checks each producer's values appear in increasing order.
	inOrder := func(snap []int) bool {
		last := map[int]int{}
		for _, v := range snap {
			p := v / 1_000_000
			if prev, ok := last[p]; ok && v <= prev {
				return false
			}
			last[p] = v
		}
		return true
	}

	// Consumer paused: only observe.
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		if snap := q.Snapshot(); len(snap) > q.Cap() || !inOrder(snap) {
			t.Fatalf("bad snapshot under paused consumer: %v", snap)
		}
		_ = q.Len()
		_ = q.Stats()
	}
	if st := q.Stats(); st.BlockedPushes == 0 {
		t.Fatalf("expected backpressure on paused consumer, stats %+v", st)
	}
	// The snapshot agrees with what a resumed consumer pops: the queue is
	// full, so producers cannot slip an item in ahead of the snapshot.
	snap := q.Snapshot()
	for i, want := range snap {
		v, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("pop %d = %d, want snapshot value %d", i, v, want)
		}
	}

	// Consumer live: snapshots race it and the producers.
	stop := make(chan struct{})
	consumed := make(chan error, 1)
	go func() {
		dst := make([]int, 5)
		for {
			select {
			case <-stop:
				consumed <- nil
				return
			default:
			}
			if _, err := q.PopBatch(dst, len(dst)); err != nil {
				consumed <- err
				return
			}
		}
	}()
	deadline = time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		if snap := q.Snapshot(); len(snap) > q.Cap() || !inOrder(snap) {
			t.Fatalf("bad snapshot under live consumer: %v", snap)
		}
	}
	close(stop)
	if err := <-consumed; err != nil {
		t.Fatal(err)
	}
	q.Close()
	wg.Wait()
}
