package queue

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTest(depth int) (*Queue[int], *obs.Registry) {
	r := obs.NewRegistry()
	return New[int](Options{MaxDepth: depth, Metrics: r, Name: "test"}), r
}

func mustSubmit(t *testing.T, q *Queue[int], v int, o SubmitOptions) *Ticket[int] {
	t.Helper()
	tk, err := q.Submit(context.Background(), v, o)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// TestFIFOWithinClass pins the queue's order: two classes submitted
// interleaved leave alternately, one per class in turn, and each class in
// its own submission order.
func TestFIFOWithinClass(t *testing.T) {
	q, _ := newTest(16)
	for _, s := range []struct {
		class string
		v     int
	}{{"batch", 1}, {"batch", 2}, {"live", 3}, {"batch", 4}, {"live", 5}, {"live", 6}, {"batch", 7}} {
		mustSubmit(t, q, s.v, SubmitOptions{Class: s.class})
	}

	want := []int{1, 3, 2, 5, 4, 6, 7}
	for i, w := range want {
		tk, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := tk.Payload(); got != w {
			t.Fatalf("dequeue %d: payload %d, want %d", i, got, w)
		}
	}
}

func TestClassRoundRobinFairness(t *testing.T) {
	q, _ := newTest(64)
	// One aggressive class floods ten jobs; a second class submits two.
	for i := 0; i < 10; i++ {
		mustSubmit(t, q, 100+i, SubmitOptions{Class: "batch"})
	}
	mustSubmit(t, q, 1, SubmitOptions{Class: "live"})
	mustSubmit(t, q, 2, SubmitOptions{Class: "live"})
	// Round-robin alternates batch/live while both are nonempty, so the
	// live jobs land in the first four dequeues instead of after the flood.
	var liveSeen int
	for i := 0; i < 4; i++ {
		tk, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if tk.Payload() < 100 { // a live job
			liveSeen++
		}
	}
	if liveSeen != 2 {
		t.Fatalf("live jobs seen in first 4 dequeues: %d, want 2", liveSeen)
	}
}

func TestAdmissionControl(t *testing.T) {
	q, reg := newTest(2)
	mustSubmit(t, q, 1, SubmitOptions{})
	mustSubmit(t, q, 2, SubmitOptions{})
	_, err := q.Submit(context.Background(), 3, SubmitOptions{})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("overflow submit: %v, want ErrFull", err)
	}
	if p := q.Pressure(); p != 1 {
		t.Fatalf("pressure %f, want 1", p)
	}
	// Draining one makes room again.
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, 4, SubmitOptions{})
	snap := reg.Snapshot()
	if got := snap.CounterTotal("queue_rejected"); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	if got := snap.CounterTotal("queue_admitted"); got != 3 {
		t.Fatalf("admitted counter %d, want 3", got)
	}
}

func TestCancelViaContext(t *testing.T) {
	q, reg := newTest(8)
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := q.Submit(ctx, 1, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The AfterFunc watcher runs asynchronously; wait for the withdrawal.
	deadline := time.Now().Add(2 * time.Second)
	for q.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled ticket never left the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if tk.Cancel() {
		t.Fatal("second cancel must lose")
	}
	if got := reg.Snapshot().CounterTotal("queue_canceled"); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
}

func TestCancelLosesAfterDequeue(t *testing.T) {
	q, _ := newTest(8)
	tk := mustSubmit(t, q, 1, SubmitOptions{})
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk.Cancel() {
		t.Fatal("cancel after dequeue must report false")
	}
}

func TestDequeueBlocksUntilSubmit(t *testing.T) {
	q, _ := newTest(8)
	got := make(chan int, 1)
	go func() {
		tk, err := q.Dequeue(context.Background())
		if err != nil {
			got <- -1
			return
		}
		got <- tk.Payload()
	}()
	time.Sleep(10 * time.Millisecond)
	mustSubmit(t, q, 42, SubmitOptions{})
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("dequeued %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dequeue never woke")
	}
}

func TestDequeueObservesContext(t *testing.T) {
	q, _ := newTest(8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dequeue on empty queue: %v, want deadline exceeded", err)
	}
}

func TestCloseDrainsThenRejects(t *testing.T) {
	q, _ := newTest(8)
	mustSubmit(t, q, 1, SubmitOptions{})
	q.Close()
	if _, err := q.Submit(context.Background(), 2, SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	tk, err := q.Dequeue(context.Background())
	if err != nil || tk.Payload() != 1 {
		t.Fatalf("draining a closed queue: %v, %v", tk, err)
	}
	if _, err := q.Dequeue(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("dequeue on drained closed queue: %v, want ErrClosed", err)
	}
}

func TestTryDequeue(t *testing.T) {
	q, _ := newTest(8)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("try on empty queue must miss")
	}
	mustSubmit(t, q, 7, SubmitOptions{})
	tk, ok := q.TryDequeue()
	if !ok || tk.Payload() != 7 {
		t.Fatalf("try: %v %v", tk, ok)
	}
}

// TestRequeuePreservesOrdering pins the lease-reassignment contract: a
// requeued ticket keeps its original arrival rank, so it dequeues ahead of
// everything that arrived after it, and the same ticket comes back.
func TestRequeuePreservesOrdering(t *testing.T) {
	q, reg := newTest(8)
	first := mustSubmit(t, q, 1, SubmitOptions{})
	mustSubmit(t, q, 2, SubmitOptions{})

	// Job 1 requeued after job 2 was already waiting still dequeues first
	// (the original sequence id is its rank).
	tk, _ := q.TryDequeue()
	if tk != first {
		t.Fatalf("pop %d, want 1", tk.Payload())
	}
	if err := q.Requeue(tk); err != nil {
		t.Fatal(err)
	}
	if tk, _ = q.TryDequeue(); tk != first {
		t.Fatalf("pop after requeue %d, want the requeued ticket of job 1", tk.Payload())
	}
	if got := reg.Snapshot().CounterTotal("queue_requeued"); got != 1 {
		t.Fatalf("requeued counter %d, want 1", got)
	}
}

// TestRequeueStateChecks rejects requeues of tickets that are not
// currently dequeued, and lets Cancel win against a requeued ticket.
func TestRequeueStateChecks(t *testing.T) {
	q, _ := newTest(8)
	tk := mustSubmit(t, q, 1, SubmitOptions{})
	if err := q.Requeue(tk); err == nil {
		t.Fatal("requeue of a still-queued ticket must fail")
	}
	got, _ := q.TryDequeue()
	if err := q.Requeue(got); err != nil {
		t.Fatal(err)
	}
	if !got.Cancel() {
		t.Fatal("cancel must win against a requeued (queued-again) ticket")
	}
	if err := q.Requeue(got); err == nil {
		t.Fatal("requeue of a canceled ticket must fail")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("canceled requeued ticket must not dequeue")
	}
}

// TestRequeueBypassesDepthAndClose: a requeued job was already admitted,
// so neither a full nor a closed queue may drop it.
func TestRequeueBypassesDepthAndClose(t *testing.T) {
	q, _ := newTest(1)
	tk := mustSubmit(t, q, 1, SubmitOptions{})
	got, _ := q.TryDequeue()
	_ = tk
	mustSubmit(t, q, 2, SubmitOptions{}) // queue full again
	if err := q.Requeue(got); err != nil {
		t.Fatalf("requeue into a full queue: %v", err)
	}
	q.Close()
	got, _ = q.TryDequeue()
	if got.Payload() != 1 {
		t.Fatalf("pop %d, want requeued job 1", got.Payload())
	}
	if err := q.Requeue(got); err != nil {
		t.Fatalf("requeue into a closed queue: %v", err)
	}
	if tk, err := q.Dequeue(context.Background()); err != nil || tk.Payload() != 1 {
		t.Fatalf("drain of closed queue after requeue: %v %v", tk, err)
	}
}

// TestRequeueWakesDequeue: a parked Dequeue must observe a requeued
// ticket, exactly like a fresh submission.
func TestRequeueWakesDequeue(t *testing.T) {
	q, _ := newTest(8)
	tk := mustSubmit(t, q, 9, SubmitOptions{})
	got, _ := q.TryDequeue()
	_ = tk
	ch := make(chan *Ticket[int], 1)
	go func() {
		tk, err := q.Dequeue(context.Background())
		if err != nil {
			t.Error(err)
		}
		ch <- tk
	}()
	time.Sleep(10 * time.Millisecond) // let the dequeuer park
	if err := q.Requeue(got); err != nil {
		t.Fatal(err)
	}
	select {
	case tk := <-ch:
		if tk.Payload() != 9 {
			t.Fatalf("woken dequeue got %d, want 9", tk.Payload())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requeue did not wake the parked dequeue")
	}
}
