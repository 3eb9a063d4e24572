package queue

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestStressExactlyOnce is the -race gate of the serving layer's core
// invariant: under concurrent submitters, a dispatcher and random
// cancellations, every submitted job has exactly one outcome — rejected at
// admission, canceled before dispatch, or executed once — and the metrics
// agree with the ground truth.
func TestStressExactlyOnce(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 200
		total        = submitters * perSubmitter
	)
	reg := obs.NewRegistry()
	q := New[int](Options{MaxDepth: 64, Metrics: reg, Name: "stress"})

	var (
		executed [total]atomic.Int32
		accepted [total]atomic.Bool
		rejected atomic.Int64
		canceled atomic.Int64 // cancellations that won (Cancel returned true)
		done     atomic.Int64 // jobs the dispatcher executed
	)

	// Dispatcher: drain until the queue closes and empties.
	var dispatcher sync.WaitGroup
	dispatcher.Add(1)
	go func() {
		defer dispatcher.Done()
		for {
			tk, err := q.Dequeue(context.Background())
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("dispatcher: %v", err)
				}
				return
			}
			executed[tk.Payload()].Add(1)
			done.Add(1)
			// A late cancel must always lose against a dequeued ticket.
			if tk.Cancel() {
				t.Error("cancel won after dequeue")
			}
		}
	}()

	classes := []string{"live", "batch", "bulk"}
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			for i := 0; i < perSubmitter; i++ {
				id := s*perSubmitter + i
				ctx, cancel := context.WithCancel(context.Background())
				tk, err := q.Submit(ctx, id, SubmitOptions{Class: classes[rng.Intn(len(classes))]})
				if err != nil {
					cancel()
					if !errors.Is(err, ErrFull) {
						t.Errorf("submit %d: %v", id, err)
					}
					rejected.Add(1)
					continue
				}
				accepted[id].Store(true)
				switch rng.Intn(3) {
				case 0: // cancel via the submission context
					cancel()
				case 1: // cancel directly; count only if we won
					if tk.Cancel() {
						canceled.Add(1)
					}
					cancel()
				default:
					// Leak no context watcher; the job stays live.
					defer cancel()
				}
			}
		}(s)
	}
	wg.Wait()
	q.Close()
	dispatcher.Wait()

	// Ground truth: every job rejected xor (accepted and executed at most
	// once); nothing both executed and counted as a won cancellation is
	// checked inside the dispatcher loop.
	var execCount int64
	for id := 0; id < total; id++ {
		n := executed[id].Load()
		if n > 1 {
			t.Fatalf("job %d executed %d times", id, n)
		}
		if n == 1 && !accepted[id].Load() {
			t.Fatalf("job %d executed but was never admitted", id)
		}
		execCount += int64(n)
	}
	if execCount != done.Load() {
		t.Fatalf("executed flags %d != dispatcher count %d", execCount, done.Load())
	}

	snap := reg.Snapshot()
	admitted := snap.CounterTotal("queue_admitted")
	if admitted+rejected.Load() != total {
		t.Fatalf("admitted %d + rejected %d != %d submitted", admitted, rejected.Load(), total)
	}
	if got := snap.CounterTotal("queue_rejected"); got != rejected.Load() {
		t.Fatalf("rejected counter %d, want %d", got, rejected.Load())
	}
	// Every admitted job was either dequeued or canceled — no job lost,
	// none double-settled. (ctx-path cancellations are counted by the
	// queue itself; the direct-path ones we tallied must be a subset.)
	dequeued := snap.CounterTotal("queue_dequeued")
	canceledMetric := snap.CounterTotal("queue_canceled")
	if dequeued+canceledMetric != admitted {
		t.Fatalf("dequeued %d + canceled %d != admitted %d: a job was lost or double-settled",
			dequeued, canceledMetric, admitted)
	}
	if dequeued != execCount {
		t.Fatalf("dequeued counter %d != executed jobs %d", dequeued, execCount)
	}
	if canceledMetric < canceled.Load() {
		t.Fatalf("canceled counter %d < direct cancellations %d", canceledMetric, canceled.Load())
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("depth %d after drain", got)
	}
}

// TestStressRequeueExactlyOnce extends the exactly-once gate to the
// lease-reassignment path: dispatchers randomly "expire the lease" of a
// dequeued ticket and requeue it (bounded retries per ticket), racing
// submitters that cancel via context or directly — including cancels that
// land while a ticket is back on the queue between attempts. The ground
// truth must still reconcile: every admitted job settles exactly once
// (executed xor canceled), and the counters balance with requeues folded
// in: dequeued + canceled = admitted + requeued.
func TestStressRequeueExactlyOnce(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 200
		dispatchers  = 4
		total        = submitters * perSubmitter
		maxAttempts  = 3
	)
	reg := obs.NewRegistry()
	q := New[int](Options{MaxDepth: 64, Metrics: reg, Name: "stress-requeue"})

	var (
		executed [total]atomic.Int32
		dequeues [total]atomic.Int32 // dequeues per payload, to cap requeues
		accepted [total]atomic.Bool
		rejected atomic.Int64
		canceled atomic.Int64 // cancellations that won (Cancel returned true)
		requeues atomic.Int64 // requeues the dispatchers performed
	)

	var dispatcher sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		dispatcher.Add(1)
		go func(d int) {
			defer dispatcher.Done()
			rng := rand.New(rand.NewSource(int64(7000 + d)))
			for {
				tk, err := q.Dequeue(context.Background())
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("dispatcher: %v", err)
					}
					return
				}
				// Simulated lease expiry: put the ticket back instead of
				// executing, up to maxAttempts total dequeues per ticket.
				if dequeues[tk.Payload()].Add(1) < maxAttempts && rng.Intn(3) == 0 {
					if err := q.Requeue(tk); err != nil {
						t.Errorf("requeue: %v", err)
					}
					requeues.Add(1)
					continue
				}
				executed[tk.Payload()].Add(1)
				if tk.Cancel() {
					t.Error("cancel won after final dequeue")
				}
			}
		}(d)
	}

	classes := []string{"live", "batch", "bulk"}
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + s)))
			for i := 0; i < perSubmitter; i++ {
				id := s*perSubmitter + i
				ctx, cancel := context.WithCancel(context.Background())
				tk, err := q.Submit(ctx, id, SubmitOptions{Class: classes[rng.Intn(len(classes))]})
				if err != nil {
					cancel()
					if !errors.Is(err, ErrFull) {
						t.Errorf("submit %d: %v", id, err)
					}
					rejected.Add(1)
					continue
				}
				accepted[id].Store(true)
				switch rng.Intn(4) {
				case 0: // cancel via the submission context
					cancel()
				case 1, 2:
					// Direct cancel after a beat: with dispatchers requeuing,
					// this often races a ticket that is back on the queue
					// between lease attempts — the mid-race case this test
					// exists for. Count it only if we won.
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					}
					if tk.Cancel() {
						canceled.Add(1)
					}
					cancel()
				default:
					defer cancel()
				}
			}
		}(s)
	}
	wg.Wait()
	q.Close()
	dispatcher.Wait()

	// Ground truth: admitted = settled (executed exactly once) + canceled.
	var execCount int64
	for id := 0; id < total; id++ {
		n := executed[id].Load()
		if n > 1 {
			t.Fatalf("job %d executed %d times", id, n)
		}
		if n == 1 && !accepted[id].Load() {
			t.Fatalf("job %d executed but was never admitted", id)
		}
		execCount += int64(n)
	}

	snap := reg.Snapshot()
	admitted := snap.CounterTotal("queue_admitted")
	if admitted+rejected.Load() != total {
		t.Fatalf("admitted %d + rejected %d != %d submitted", admitted, rejected.Load(), total)
	}
	canceledMetric := snap.CounterTotal("queue_canceled")
	if admitted != execCount+canceledMetric {
		t.Fatalf("admitted %d != settled %d + canceled %d: a job was lost or double-settled",
			admitted, execCount, canceledMetric)
	}
	// Requeues fold into the flow balance: every dequeue is either final
	// (settled) or followed by a requeue, and every requeued ticket is
	// dequeued again or canceled off the queue.
	dequeued := snap.CounterTotal("queue_dequeued")
	requeuedMetric := snap.CounterTotal("queue_requeued")
	if dequeued+canceledMetric != admitted+requeuedMetric {
		t.Fatalf("dequeued %d + canceled %d != admitted %d + requeued %d",
			dequeued, canceledMetric, admitted, requeuedMetric)
	}
	if requeuedMetric != requeues.Load() {
		t.Fatalf("requeued counter %d != dispatcher requeues %d", requeuedMetric, requeues.Load())
	}
	if requeuedMetric == 0 {
		t.Fatal("stress run exercised no requeues")
	}
	if canceledMetric < canceled.Load() {
		t.Fatalf("canceled counter %d < direct cancellations %d", canceledMetric, canceled.Load())
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("depth %d after drain", got)
	}
}
