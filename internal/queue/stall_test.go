package queue

import (
	"testing"
	"time"
)

// stallDelay is how long the blocked side is held parked before relief; the
// accounting only needs to register *some* wall time, so the assertion is a
// loose lower bound well under the delay.
const stallDelay = 20 * time.Millisecond

func TestQueuePushStallAccounting(t *testing.T) {
	q := New[int](1)
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Push(2) }() // parks: queue full
	time.Sleep(stallDelay)
	if _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.BlockedPushes == 0 {
		t.Fatal("blocked push not counted")
	}
	if st.PushStallNS < uint64(stallDelay/2) {
		t.Fatalf("PushStallNS = %d, want at least ~%d", st.PushStallNS, stallDelay/2)
	}
}

func TestQueuePopStallAccounting(t *testing.T) {
	q := New[int](4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := q.Pop(); err != nil { // parks: queue empty
			t.Error(err)
		}
	}()
	time.Sleep(stallDelay)
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	<-done
	st := q.Stats()
	if st.BlockedPops == 0 {
		t.Fatal("blocked pop not counted")
	}
	if st.PopStallNS < uint64(stallDelay/2) {
		t.Fatalf("PopStallNS = %d, want at least ~%d", st.PopStallNS, stallDelay/2)
	}
}

func TestQueueUncontendedNoStall(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := q.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.PushStallNS != 0 || st.PopStallNS != 0 {
		t.Fatalf("uncontended traffic accrued stall: push=%d pop=%d", st.PushStallNS, st.PopStallNS)
	}
}
