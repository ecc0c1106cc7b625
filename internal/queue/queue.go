// Package queue implements the bounded, instrumented FIFO that backs every
// stage's input buffer.
//
// Section 4.1 of the GATES paper models each pipeline stage as a server in a
// queuing network whose input buffer is the server's queue; the
// self-adaptation algorithm observes the queue's current length d, its
// recent average, and its capacity C. This package provides exactly that
// observable queue: a blocking bounded FIFO whose occupancy statistics are
// cheap to sample from a concurrent controller. One implementation serves
// every edge, whatever its producer count: a mutex and two condition
// variables, which measured as fast as lock-free SPSC and MPSC rings on the
// pipeline benchmarks (DESIGN.md §10).
//
// The queue offers two granularities. Per-item Push/Pop pay one mutex
// round-trip and one condvar wakeup per item. PushBatch/PopBatch move many
// items under a single lock acquisition — the §4.1 model's per-batch
// amortizable service cost — and Len reads an atomic occupancy mirror, so
// the adaptation controller's periodic sampling never contends with the
// data path. Every blocking call has a ctx twin; the plain form is the twin
// under context.Background.
package queue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Push operations on a closed queue and by Pop
// operations once a closed queue has been fully drained.
var ErrClosed = errors.New("queue: closed")

// ErrFull is returned by TryPush when the queue is at capacity.
var ErrFull = errors.New("queue: full")

// ErrEmpty is returned by TryPop when the queue holds no items.
var ErrEmpty = errors.New("queue: empty")

// Stats is a snapshot of a queue's lifetime counters. All counts are
// monotonically non-decreasing for the life of the queue.
type Stats struct {
	// Pushed is the number of items accepted.
	Pushed uint64
	// Popped is the number of items removed.
	Popped uint64
	// BlockedPushes counts push waits — each is one backpressure event
	// propagated to the producer. A batch push that waits for space more
	// than once counts one event per wait episode.
	BlockedPushes uint64
	// BlockedPops counts pop waits for an item.
	BlockedPops uint64
	// HighWater is the maximum occupancy ever observed.
	HighWater int
	// Dropped counts items rejected by TryPush on a full queue.
	Dropped uint64
	// PushStallNS and PopStallNS are the cumulative wall-clock
	// nanoseconds producers spent parked on a full buffer and the
	// consumer spent parked on an empty one. Wall time, not virtual: a
	// parked goroutine does not advance any virtual schedule, and the
	// bottleneck-attribution engine compares these against a wall-clock
	// epoch. Only the parked slow path pays the clock reads.
	PushStallNS uint64
	PopStallNS  uint64
}

// Queue is a bounded FIFO safe for any number of concurrent producers and
// consumers. The zero value is not usable; construct with New.
type Queue[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf    []T // ring buffer
	head   int // index of the oldest element
	n      int // number of elements
	closed bool

	// length mirrors n so Len can be sampled without taking mu.
	length atomic.Int64

	stats Stats

	// watched lists the contexts that have a cancellation watcher
	// running (see watch).
	watched []context.Context
}

// New returns a queue with the given capacity. Capacity must be at least 1;
// New panics otherwise, since a zero-capacity server queue is meaningless in
// the paper's model.
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		panic("queue: capacity must be >= 1")
	}
	q := &Queue[T]{buf: make([]T, capacity)}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Cap returns the fixed capacity C of the queue.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len returns the current occupancy d of the queue. It is the quantity the
// self-adaptation controller samples; the read is a single atomic load, so
// a controller polling at any rate never blocks the data path.
func (q *Queue[T]) Len() int { return int(q.length.Load()) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Snapshot returns the queued items oldest-first without removing them —
// the state-capture hook live migration uses to account for the in-flight
// buffer of a paused stage. It copies under the lock, so it is safe with
// live producers and a live consumer.
func (q *Queue[T]) Snapshot() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]T, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

// Push appends v, blocking while the queue is full. It returns ErrClosed if
// the queue is (or becomes) closed while waiting.
func (q *Queue[T]) Push(v T) error { return q.PushCtx(context.Background(), v) }

// PushCtx is Push with cancellation. If ctx is done before space is
// available it returns ctx.Err().
func (q *Queue[T]) PushCtx(ctx context.Context, v T) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.waitRoom(ctx); err != nil {
		return err
	}
	q.pushLocked(v)
	return nil
}

// TryPush appends v without blocking. It returns ErrFull when at capacity
// (counting the item as dropped) or ErrClosed after Close.
func (q *Queue[T]) TryPush(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.n == len(q.buf) {
		q.stats.Dropped++
		return ErrFull
	}
	q.pushLocked(v)
	return nil
}

// PushBatch appends every item in order, blocking while the queue is full.
// Items are moved in chunks of whatever capacity is free, each chunk under
// one lock acquisition and one consumer wakeup, so the per-item condvar
// round-trip of Push is amortized across the batch. FIFO order within the
// batch and relative to concurrent per-item pushes is preserved (the whole
// chunk is enqueued contiguously).
//
// If the queue is closed mid-batch, PushBatch returns ErrClosed; a prefix
// of the batch may already have been accepted (and is counted in
// Stats.Pushed).
func (q *Queue[T]) PushBatch(items []T) error {
	_, err := q.PushBatchN(context.Background(), items)
	return err
}

// PushBatchCtx is PushBatch with cancellation. On ctx cancellation a prefix
// of the batch may already have been accepted.
func (q *Queue[T]) PushBatchCtx(ctx context.Context, items []T) error {
	_, err := q.PushBatchN(ctx, items)
	return err
}

// PushBatchN is PushBatchCtx reporting how many leading items were
// accepted. On cancellation or close the caller knows exactly which suffix
// never entered the queue and can retry it — what makes a blocked batched
// emit a resumable pause boundary rather than an all-or-nothing loss.
func (q *Queue[T]) PushBatchN(ctx context.Context, items []T) (int, error) {
	pushed := 0
	for len(items) > 0 {
		if err := ctx.Err(); err != nil {
			return pushed, err
		}
		q.mu.Lock()
		if err := q.waitRoom(ctx); err != nil {
			q.mu.Unlock()
			return pushed, err
		}
		k := min(len(q.buf)-q.n, len(items))
		q.enqueueLocked(items[:k])
		q.mu.Unlock()
		items = items[k:]
		pushed += k
	}
	return pushed, nil
}

// waitRoom parks the caller while the queue is full, open, and ctx is live.
// It returns nil when there is room, ErrClosed once the queue is closed,
// or ctx.Err() on cancellation. Each park is one blocked-push event. The
// caller holds mu.
func (q *Queue[T]) waitRoom(ctx context.Context) error {
	if q.n == len(q.buf) && !q.closed {
		q.watch(ctx)
		blocked := false
		var stall time.Time
		for q.n == len(q.buf) && !q.closed && ctx.Err() == nil {
			if !blocked {
				blocked = true
				q.stats.BlockedPushes++
				stall = time.Now()
			}
			q.notFull.Wait()
		}
		if blocked {
			q.stats.PushStallNS += uint64(time.Since(stall))
		}
		if err := ctx.Err(); err != nil {
			// This waiter may have absorbed a Signal meant for another
			// blocked producer; pass it on so the wakeup is not lost.
			if q.n < len(q.buf) {
				q.notFull.Signal()
			}
			return err
		}
	}
	if q.closed {
		return ErrClosed
	}
	return nil
}

// waitItems parks the caller while the queue is empty, open, and ctx is
// live. It returns nil when an item is ready, ErrClosed once the queue is
// closed and drained, or ctx.Err() on cancellation. Each park is one
// blocked-pop event. The caller holds mu.
func (q *Queue[T]) waitItems(ctx context.Context) error {
	if q.n == 0 && !q.closed {
		q.watch(ctx)
		blocked := false
		var stall time.Time
		for q.n == 0 && !q.closed && ctx.Err() == nil {
			if !blocked {
				blocked = true
				q.stats.BlockedPops++
				stall = time.Now()
			}
			q.notEmpty.Wait()
		}
		if blocked {
			q.stats.PopStallNS += uint64(time.Since(stall))
		}
		if err := ctx.Err(); err != nil {
			if q.n > 0 {
				q.notEmpty.Signal() // hand off an absorbed wakeup
			}
			return err
		}
	}
	if q.n == 0 { // closed and drained
		return ErrClosed
	}
	return nil
}

// watch makes sure a goroutine wakes every waiter once ctx is done, so a
// parked ctx-bearing call observes its cancellation. There is one watcher
// per live context, kept until that context ends, so repeated parking
// under the same context (a stage's pop context for a whole pause epoch)
// allocates nothing after the first wait. A watcher lives as long as its
// context, so a context that is never canceled keeps one goroutine parked;
// every context the pipeline parks under ends with its pause epoch or run.
// The watcher broadcasts under mu: a waiter that has checked its predicate
// but not yet suspended in Wait still holds the lock, so the wakeup cannot
// slip into that window and be missed. The caller holds mu.
func (q *Queue[T]) watch(ctx context.Context) {
	if ctx.Done() == nil {
		return // never canceled
	}
	for _, w := range q.watched {
		if w == ctx {
			return
		}
	}
	q.watched = append(q.watched, ctx)
	go func() {
		<-ctx.Done()
		q.mu.Lock()
		for i, w := range q.watched {
			if w == ctx {
				last := len(q.watched) - 1
				q.watched[i] = q.watched[last]
				q.watched[last] = nil
				q.watched = q.watched[:last]
				break
			}
		}
		q.notFull.Broadcast()
		q.notEmpty.Broadcast()
		q.mu.Unlock()
	}()
}

// pushLocked appends one item; the caller holds mu.
func (q *Queue[T]) pushLocked(v T) {
	tail := (q.head + q.n) % len(q.buf)
	q.buf[tail] = v
	q.n++
	q.length.Store(int64(q.n))
	q.stats.Pushed++
	if q.n > q.stats.HighWater {
		q.stats.HighWater = q.n
	}
	// Exactly one item became available: exactly one consumer can
	// proceed, so Signal, not Broadcast — waking every blocked consumer
	// per item is a thundering herd that burns the data path's cycles.
	q.notEmpty.Signal()
}

// enqueueLocked appends items contiguously (at most two ring segments); the
// caller holds mu and guarantees capacity.
func (q *Queue[T]) enqueueLocked(items []T) {
	tail := (q.head + q.n) % len(q.buf)
	copied := copy(q.buf[tail:], items)
	if copied < len(items) {
		copy(q.buf, items[copied:])
	}
	q.n += len(items)
	q.length.Store(int64(q.n))
	q.stats.Pushed += uint64(len(items))
	if q.n > q.stats.HighWater {
		q.stats.HighWater = q.n
	}
	if len(items) == 1 {
		q.notEmpty.Signal()
	} else {
		// Several consumers can now proceed; wake them all once per
		// batch rather than once per item.
		q.notEmpty.Broadcast()
	}
}

// Pop removes and returns the oldest item, blocking while the queue is
// empty. Once the queue is closed and drained it returns ErrClosed.
func (q *Queue[T]) Pop() (T, error) { return q.PopCtx(context.Background()) }

// PopCtx is Pop with cancellation: on ctx.Err() nothing is consumed.
func (q *Queue[T]) PopCtx(ctx context.Context) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.waitItems(ctx); err != nil {
		return zero, err
	}
	return q.popLocked(), nil
}

// TryPop removes and returns the oldest item without blocking. It returns
// ErrEmpty when nothing is queued, or ErrClosed once closed and drained.
func (q *Queue[T]) TryPop() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.n == 0 {
		if q.closed {
			return zero, ErrClosed
		}
		return zero, ErrEmpty
	}
	return q.popLocked(), nil
}

// PopBatch removes up to max items (bounded by len(dst)) into dst, blocking
// while the queue is empty. It returns the number of items moved — at least
// one — or 0 and ErrClosed once the queue is closed and drained. All
// immediately available items up to the bound are taken under one lock
// acquisition; PopBatch never waits for the queue to fill, so batching adds
// no latency. max <= 0 means len(dst).
func (q *Queue[T]) PopBatch(dst []T, max int) (int, error) {
	return q.PopBatchCtx(context.Background(), dst, max)
}

// PopBatchCtx is PopBatch with cancellation.
func (q *Queue[T]) PopBatchCtx(ctx context.Context, dst []T, max int) (int, error) {
	if max <= 0 || max > len(dst) {
		max = len(dst)
	}
	if max == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.waitItems(ctx); err != nil {
		return 0, err
	}
	k := min(q.n, max)
	q.dequeueLocked(dst[:k])
	return k, nil
}

// popLocked removes one item; the caller holds mu.
func (q *Queue[T]) popLocked() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.length.Store(int64(q.n))
	q.stats.Popped++
	// Exactly one slot freed: exactly one producer can proceed.
	q.notFull.Signal()
	return v
}

// dequeueLocked moves the oldest len(dst) items into dst (at most two ring
// segments); the caller holds mu and guarantees availability.
func (q *Queue[T]) dequeueLocked(dst []T) {
	k := len(dst)
	first := len(q.buf) - q.head
	if first > k {
		first = k
	}
	copy(dst, q.buf[q.head:q.head+first])
	copy(dst[first:], q.buf[:k-first])
	var zero T
	for i := q.head; i < q.head+first; i++ {
		q.buf[i] = zero // release references
	}
	for i := 0; i < k-first; i++ {
		q.buf[i] = zero
	}
	q.head = (q.head + k) % len(q.buf)
	q.n -= k
	q.length.Store(int64(q.n))
	q.stats.Popped += uint64(k)
	if k == 1 {
		q.notFull.Signal()
	} else {
		// Several producers can now proceed; one wakeup for the batch.
		q.notFull.Broadcast()
	}
}

// Close marks the queue closed. Pending and future Push calls fail with
// ErrClosed; Pop continues to drain remaining items and then fails with
// ErrClosed. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}
