// Package queue is the admission edge of the serving layer: a bounded
// job queue with per-class fairness, context-driven cancellation and
// backpressure signals.
//
// The design follows what the paper's §III-D2 scheduler needs once tasks
// *arrive* instead of being known upfront: admission control keeps the
// queue from absorbing unbounded load (a full queue rejects with a typed
// reason the API layer can map to 429/503), and the dequeue order is three
// rules. Within a class, jobs leave in arrival order. Across classes, the
// queue takes one job per class in turn, so one tenant's burst cannot
// starve the others. A requeued ticket goes back to its original rank.
//
// Everything is safe for concurrent use. The exactly-once guarantee the
// dispatcher builds on: every submitted ticket is observed by exactly one
// of Dequeue (it will run) or cancellation (it never runs) — never both,
// never neither.
package queue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Typed admission outcomes. Rejections wrap these so callers can map a
// reason to a response code with errors.Is.
var (
	// ErrFull rejects a submission when the queue is at MaxDepth.
	ErrFull = errors.New("queue: full")
	// ErrClosed rejects submissions after Close, and ends a Dequeue loop
	// once a closed queue has drained.
	ErrClosed = errors.New("queue: closed")
)

// Options configures a queue.
type Options struct {
	// MaxDepth bounds the number of queued (not yet dequeued) tickets;
	// submissions beyond it are rejected with ErrFull. 0 means 256.
	MaxDepth int
	// Name labels the queue's metrics (queue_depth{queue=Name}, ...) so two
	// queues in one process stay distinguishable. Empty omits the label.
	Name string
	// Metrics selects the registry; nil means obs.Default().
	Metrics *obs.Registry
}

// SubmitOptions classifies one submission.
type SubmitOptions struct {
	// Class is the fairness class (tenant, traffic tier). Empty is a valid
	// class of its own.
	Class string
}

// Ticket is one queued submission. A ticket is handed out by Submit and
// settles exactly once: to dequeued (via Dequeue) or to canceled (via
// Cancel or the submission context). A dequeued ticket whose execution
// attempt failed externally — an expired worker lease — may travel back
// through Requeue any number of times before it settles; every pass keeps
// its original arrival rank, so reassignment never penalizes the job.
type Ticket[T any] struct {
	id      uint64
	class   string
	payload T
	enq     time.Time

	q     *Queue[T]
	index int // heap index while queued; -1 once off the heap
	state ticketState
	stop  func() bool // releases the context.AfterFunc watcher
}

type ticketState int32

const (
	stateQueued ticketState = iota
	stateDequeued
	stateCanceled
)

// Payload returns the submitted value.
func (t *Ticket[T]) Payload() T { return t.payload }

// Cancel removes a still-queued ticket. It reports true when this call won
// the race — the ticket will never be dequeued (again) — and false when
// the ticket was already dequeued or canceled. A requeued ticket is queued
// again, so Cancel can still win against it; the dispatcher layer treats
// that as a canceled job exactly like a never-dequeued one.
func (t *Ticket[T]) Cancel() bool { return t.q.cancel(t) }

// Queue is a bounded multi-class FIFO queue. Use New.
type Queue[T any] struct {
	max int
	met queueMetrics

	mu      sync.Mutex
	cond    *sync.Cond
	classes map[string]*classHeap[T]
	order   []string // class names, sorted, for deterministic round-robin
	rr      int      // next round-robin position in order
	depth   int
	seq     uint64
	closed  bool
}

type queueMetrics struct {
	admitted       *obs.Counter
	rejectedFull   *obs.Counter
	rejectedClosed *obs.Counter
	canceled       *obs.Counter
	dequeued       *obs.Counter
	requeued       *obs.Counter
	depth          *obs.Gauge
	wait           *obs.Histogram
}

// New builds an empty queue.
func New[T any](o Options) *Queue[T] {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 256
	}
	r := o.Metrics
	if r == nil {
		r = obs.Default()
	}
	var labels []string
	if o.Name != "" {
		labels = []string{"queue", o.Name}
	}
	q := &Queue[T]{
		max: o.MaxDepth,
		met: queueMetrics{
			admitted:       r.Counter("queue_admitted", labels...),
			rejectedFull:   r.Counter("queue_rejected", append([]string{"reason", "full"}, labels...)...),
			rejectedClosed: r.Counter("queue_rejected", append([]string{"reason", "closed"}, labels...)...),
			canceled:       r.Counter("queue_canceled", labels...),
			dequeued:       r.Counter("queue_dequeued", labels...),
			requeued:       r.Counter("queue_requeued", labels...),
			depth:          r.Gauge("queue_depth", labels...),
			wait:           r.Histogram("queue_wait_ns", labels...),
		},
		classes: make(map[string]*classHeap[T]),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Submit admits one payload, or rejects it with a reason: ErrFull when the
// queue is at capacity, ErrClosed after Close. On admission the returned
// ticket is live until dequeued; canceling ctx while the ticket is still
// queued withdraws it (the cancellation path of a client that gave up).
// A nil-Done ctx (context.Background()) means no automatic withdrawal.
func (q *Queue[T]) Submit(ctx context.Context, payload T, opts SubmitOptions) (*Ticket[T], error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.met.rejectedClosed.Inc()
		return nil, ErrClosed
	}
	if q.depth >= q.max {
		q.mu.Unlock()
		q.met.rejectedFull.Inc()
		return nil, fmt.Errorf("%w: depth %d at limit", ErrFull, q.max)
	}
	q.seq++
	t := &Ticket[T]{
		id:      q.seq,
		class:   opts.Class,
		payload: payload,
		enq:     time.Now(),
		q:       q,
	}
	h := q.classes[opts.Class]
	if h == nil {
		h = &classHeap[T]{}
		q.classes[opts.Class] = h
		// Insert the class into the sorted round-robin order. The slice is
		// small (classes are traffic tiers, not jobs) so O(n) insert is fine.
		i := sort.SearchStrings(q.order, opts.Class)
		q.order = append(q.order, "")
		copy(q.order[i+1:], q.order[i:])
		q.order[i] = opts.Class
		if i <= q.rr && len(q.order) > 1 {
			q.rr++ // keep the round-robin cursor on the class it pointed at
		}
	}
	heap.Push(h, t)
	q.depth++
	q.met.admitted.Inc()
	q.met.depth.Set(int64(q.depth))
	// Registering the watcher under the lock closes the race with a
	// concurrent Dequeue reading t.stop.
	if ctx.Done() != nil {
		t.stop = context.AfterFunc(ctx, func() { t.Cancel() })
	}
	q.cond.Signal()
	q.mu.Unlock()
	return t, nil
}

// Dequeue blocks until a ticket is available and returns it, rotating
// fairly across classes: each nonempty class yields one ticket per
// round-robin cycle, and within a class tickets leave in arrival order. It
// returns ctx.Err() when ctx cancels first, and ErrClosed once the queue is
// closed and drained.
func (q *Queue[T]) Dequeue(ctx context.Context) (*Ticket[T], error) {
	if ctx.Done() != nil {
		// A canceled ctx must wake a parked waiter; Broadcast (not Signal)
		// because several waiters may share the ctx.
		defer context.AfterFunc(ctx, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t := q.popLocked(); t != nil {
			return t, nil
		}
		if q.closed {
			return nil, ErrClosed
		}
		q.cond.Wait()
	}
}

// TryDequeue returns the next ticket without blocking; ok is false when the
// queue is momentarily empty (or closed and drained). The dispatcher uses
// it to top a placement batch up to the free-server count.
func (q *Queue[T]) TryDequeue() (*Ticket[T], bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.popLocked()
	return t, t != nil
}

// popLocked removes and returns the next ticket in fairness order, or nil
// when every class is empty. Caller holds q.mu.
func (q *Queue[T]) popLocked() (t *Ticket[T]) {
	for i := 0; i < len(q.order); i++ {
		ci := (q.rr + i) % len(q.order)
		h := q.classes[q.order[ci]]
		if h.Len() == 0 {
			continue
		}
		t = heap.Pop(h).(*Ticket[T])
		q.rr = (ci + 1) % len(q.order)
		break
	}
	if t == nil {
		return nil
	}
	t.state = stateDequeued
	t.index = -1
	if t.stop != nil {
		t.stop() // the ticket is off the queue; the ctx watcher is moot
	}
	q.depth--
	q.met.dequeued.Inc()
	q.met.depth.Set(int64(q.depth))
	q.met.wait.ObserveSince(t.enq)
	return t
}

// cancel implements Ticket.Cancel.
func (q *Queue[T]) cancel(t *Ticket[T]) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.state != stateQueued {
		return false
	}
	heap.Remove(q.classes[t.class], t.index)
	t.state = stateCanceled
	t.index = -1
	q.depth--
	q.met.canceled.Inc()
	q.met.depth.Set(int64(q.depth))
	return true
}

// Requeue re-admits a dequeued ticket whose execution attempt failed
// externally — the lease-reassignment path of the serving layer: a worker
// that held the job missed its heartbeats, so the job must go back and run
// elsewhere. The ticket keeps its class and original arrival rank (its
// sequence id), so a reassigned job overtakes everything that arrived after
// it rather than rejoining at the tail.
//
// Requeue deliberately bypasses both MaxDepth and Close: the job was
// already admitted once, and dropping it now would violate the
// exactly-once settlement contract (Close only stops *new* admissions;
// requeued tickets drain like any other queued ticket). It fails when the
// ticket is not currently dequeued — a canceled or still-queued ticket has
// nothing to re-admit.
func (q *Queue[T]) Requeue(t *Ticket[T]) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.q != q {
		return errors.New("queue: requeue: ticket belongs to a different queue")
	}
	if t.state != stateDequeued {
		return fmt.Errorf("queue: requeue: ticket %d is not dequeued", t.id)
	}
	t.state = stateQueued
	// The class heap always exists: classes are created at first Submit and
	// never removed.
	heap.Push(q.classes[t.class], t)
	q.depth++
	q.met.requeued.Inc()
	q.met.depth.Set(int64(q.depth))
	q.cond.Signal()
	return nil
}

// Close stops admissions. Already-queued tickets remain dequeueable (a
// graceful shutdown drains them); Dequeue returns ErrClosed once the queue
// is empty.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Depth returns the number of queued tickets.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Pressure is the backpressure signal: queued depth as a fraction of
// MaxDepth (0 empty, 1 full). Producers can shed or slow down as it
// approaches 1 instead of waiting for hard ErrFull rejections.
func (q *Queue[T]) Pressure() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return float64(q.depth) / float64(q.max)
}

// classHeap orders one class's tickets by arrival (sequence id). A heap,
// not a FIFO slice, because a requeued ticket goes back to its original
// rank and a canceled one leaves from the middle.
type classHeap[T any] []*Ticket[T]

func (h classHeap[T]) Len() int { return len(h) }

func (h classHeap[T]) Less(i, j int) bool { return h[i].id < h[j].id }

func (h classHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *classHeap[T]) Push(x any) {
	t := x.(*Ticket[T])
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *classHeap[T]) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
