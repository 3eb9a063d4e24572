package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
)

// This file is the transport half of the dispatcher split: the dispatcher
// (dispatch.go) owns admission, ordering and placement; a transport owns
// delivery and completion. Two transports exist: the in-process loopback
// below (kept so RunClosedLoop and single-process deployments work
// unchanged) and the networked pull-based worker fleet (fleet.go). Both end
// in Execute — the loopback calls it directly, fleet workers
// (internal/worker) call it on their side of the wire.

// slot is one free execution slot the dispatcher can place onto. Slots are
// snapshots: a fleet slot can vanish between Free and Start (the worker
// crashed or its poll timed out), which Start reports as an error so the
// dispatcher requeues instead of losing the job.
type slot struct {
	id    string // transport-unique slot key
	label string // what JobView.Server reports (config name / worker id)
	// spec is the slot's capability, the metadata driving placement: backend
	// kind, uarch config, hourly price, spot flag.
	spec backend.ServerSpec
	// util is the slot's reported utilization percent (fleet heartbeats;
	// loopback slots are dedicated simulated servers and report 0). The
	// dispatcher folds it into placement as a load-spreading tiebreak.
	util float64
}

// outcome is the terminal report of one dispatched attempt.
type outcome struct {
	seconds float64
	report  *perf.Report // full profile when the executor measured one
	config  string       // configuration name the attempt ran on
	// spec is the executing server's capability; the settling attempt's
	// spec prices the job (cost = seconds × price), which is what makes
	// cost accounting exactly-once — requeued attempts carry no outcome.
	spec    backend.ServerSpec
	stream  []byte // encoded bitstream, if the attempt returned one
	err     error
	requeue bool // the attempt died without a result: re-admit, don't fail
}

// transport abstracts how placed jobs execute.
type transport interface {
	// open starts the transport's background machinery under ctx.
	open(ctx context.Context)
	// specs snapshots the capability of every live server (configured
	// servers, or registered live workers): the fleet size, and the input
	// of deadline admission's class list.
	specs() []backend.ServerSpec
	// freeSlots snapshots the currently idle slots in deterministic order.
	// A transport calls Server.wake whenever a slot becomes free.
	freeSlots() []slot
	// start hands one placed job to the identified slot. finish is called
	// exactly once with the outcome — unless start itself returns an error
	// (the slot vanished between freeSlots and start), in which case the
	// job was never delivered and finish is never called.
	start(ctx context.Context, sl slot, tk *queue.Ticket[*record], finish func(outcome)) error
	// close stops the transport; loopback waits for in-flight jobs.
	close()
}

// distinctClasses dedupes specs to one per capability label, in first-seen
// order, for deadline-admission checks; empty means no capability is known
// yet and admission stays optimistic.
func distinctClasses(specs []backend.ServerSpec) []backend.ServerSpec {
	seen := make(map[string]bool)
	var out []backend.ServerSpec
	for _, spec := range specs {
		if !seen[spec.Label()] {
			seen[spec.Label()] = true
			out = append(out, spec)
		}
	}
	return out
}

// Execute runs one placed unit on a server of the given capability: the
// one execution path behind the loopback and every fleet worker. The job
// runs on spec.Config (its own Config is ignored). A software server
// simulates the whole transcode (core.Run) and reports the profile's
// seconds. An accelerator runs the encode alone (core.EncodeOnly) — same
// bits, no profile — and takes its wall clock from the closed-form
// backend.DefaultAccel model over the unit's frames; options outside its
// surface are an error, since placement never sends them there. The
// result carries the unit's bitstream; the caller keeps it or drops it.
func Execute(ctx context.Context, spec backend.ServerSpec, job core.Job) (float64, *core.Result, error) {
	job.Config = spec.Config
	if spec.Backend != backend.Accel {
		res, err := core.Run(ctx, job)
		if err != nil {
			return 0, nil, err
		}
		return res.Report.Seconds, res, nil
	}
	accel := backend.DefaultAccel()
	if !accel.Accepts(job.Options) {
		return 0, nil, errors.New("serve: options outside the accelerator's surface")
	}
	pw, ph, frames, err := core.ProxyDims(job.Workload)
	if err != nil {
		return 0, nil, err
	}
	if !job.Segment.IsZero() {
		frames = job.Segment.Len()
	}
	res, err := core.EncodeOnly(ctx, job)
	if err != nil {
		return 0, nil, err
	}
	return accel.Seconds(frames, pw, ph), res, nil
}

// --- loopback -------------------------------------------------------------------

// loopback is the in-process transport: the fleet is simulated by running
// every placed job through Execute on its own goroutine, one busy flag per
// configured server and at most Config.Workers jobs at once. It is the
// transport behind RunClosedLoop and any serve instance without Fleet
// options.
type loopback struct {
	fleet   sched.Fleet // per-server specs
	proto   core.Workload
	metrics *obs.Registry
	busySrv *obs.Gauge
	wake    func() // Server.wake, called when a server is released

	tokens  chan struct{} // one per running job; capacity Config.Workers
	running sync.WaitGroup

	mu   sync.Mutex
	busy []bool
}

func newLoopback(cfg Config, reg *obs.Registry, wake func()) *loopback {
	return &loopback{
		fleet:   cfg.Servers,
		proto:   cfg.Proto,
		metrics: reg,
		busySrv: reg.Gauge("serve_busy_servers"),
		wake:    wake,
		tokens:  make(chan struct{}, cfg.Workers),
		busy:    make([]bool, len(cfg.Servers)),
	}
}

func (l *loopback) open(context.Context) {}

func (l *loopback) specs() []backend.ServerSpec { return l.fleet }

func (l *loopback) freeSlots() []slot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []slot
	for i, b := range l.busy {
		if !b {
			out = append(out, slot{id: "local-" + strconv.Itoa(i), label: l.fleet[i].Label(), spec: l.fleet[i]})
		}
	}
	return out
}

func (l *loopback) start(ctx context.Context, sl slot, tk *queue.Ticket[*record], finish func(outcome)) error {
	i, err := l.index(sl.id)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if l.busy[i] {
		l.mu.Unlock()
		return fmt.Errorf("serve: slot %s already busy", sl.id)
	}
	l.busy[i] = true
	l.busySrv.Add(1)
	l.mu.Unlock()

	// With every worker busy the dispatcher waits here, holding the server
	// it placed onto.
	select {
	case l.tokens <- struct{}{}:
	case <-ctx.Done():
		l.release(i)
		return fmt.Errorf("serve: dispatch: %w", ctx.Err())
	}
	rec := tk.Payload()
	spec := l.fleet[i]
	l.running.Add(1)
	go func() {
		defer l.running.Done()
		// The pool runs the job even once ctx is canceled, so finish is
		// called exactly once: Execute sees ctx and reports its error. The
		// job reports its outcome through finish; Map's errors repeat it.
		_, _ = exec.Pool{Workers: 1, Metrics: l.metrics}.Map(context.WithoutCancel(ctx), 1, func(context.Context, int) error {
			w := l.proto
			w.Video = rec.task.Video
			seconds, res, err := Execute(ctx, spec, core.Job{Workload: w, Options: rec.opts, Segment: rec.seg})
			// Release before finishing: a closed-loop client that saw the
			// job settle must find the fleet capacity already restored.
			<-l.tokens
			l.release(i)
			if err != nil {
				finish(outcome{config: spec.Label(), spec: spec, err: err})
				return err
			}
			finish(outcome{seconds: seconds, report: res.Report, config: spec.Label(), spec: spec, stream: res.Stream})
			return nil
		})
	}()
	return nil
}

// release returns a server to the free set.
func (l *loopback) release(i int) {
	l.mu.Lock()
	l.busy[i] = false
	l.busySrv.Add(-1)
	l.mu.Unlock()
	l.wake()
}

func (l *loopback) close() { l.running.Wait() }

// index resolves a loopback slot id back to its fleet index.
func (l *loopback) index(id string) (int, error) {
	var i int
	if _, err := fmt.Sscanf(id, "local-%d", &i); err != nil || i < 0 || i >= len(l.fleet) {
		return 0, fmt.Errorf("serve: unknown loopback slot %q", id)
	}
	return i, nil
}
