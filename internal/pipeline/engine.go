package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/queue"
)

// Engine owns a set of wired stage instances and runs them to completion.
// It is the in-process execution fabric underneath the service layer's
// containers: the Deployer decides *where* instances go; the Engine makes
// them flow.
type Engine struct {
	clk clock.Clock

	mu        sync.Mutex
	stages    []*Stage
	started   bool
	defBatch  int
	defReplay int
	o         *obs.Observability
}

// New returns an empty engine on the given clock.
func New(clk clock.Clock) *Engine {
	if clk == nil {
		panic("pipeline: New requires a clock")
	}
	return &Engine{clk: clk}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() clock.Clock { return e.clk }

// SetDefaultBatchSize sets the drain/coalesce batch size applied at Run to
// every stage whose StageConfig leaves BatchSize zero. Values below 1 (and
// the initial state) mean 1: strict per-packet semantics. Calling it after
// Run has started has no effect.
func (e *Engine) SetDefaultBatchSize(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.defBatch = n
}

// SetDefaultReplayBuffer sets the fault-tolerance replay-buffer depth
// applied at Run to every stage whose StageConfig leaves ReplayBuffer zero
// (see StageConfig.ReplayBuffer). Values of zero or below (and the initial
// state) leave fault tolerance off. Calling it after Run has started has no
// effect.
func (e *Engine) SetDefaultReplayBuffer(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.defReplay = n
}

// AddProcessorStage registers a packet-driven stage instance.
func (e *Engine) AddProcessorStage(id string, instance int, p Processor, cfg StageConfig) (*Stage, error) {
	if p == nil {
		return nil, fmt.Errorf("pipeline: stage %s/%d: nil Processor", id, instance)
	}
	return e.addStage(id, instance, p, nil, cfg)
}

// AddSourceStage registers a generating stage instance with no inputs.
func (e *Engine) AddSourceStage(id string, instance int, s Source, cfg StageConfig) (*Stage, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: stage %s/%d: nil Source", id, instance)
	}
	return e.addStage(id, instance, nil, s, cfg)
}

func (e *Engine) addStage(id string, instance int, p Processor, src Source, cfg StageConfig) (*Stage, error) {
	if id == "" {
		return nil, errors.New("pipeline: stage id must be non-empty")
	}
	cfg.fill()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil, errors.New("pipeline: engine already running")
	}
	for _, st := range e.stages {
		if st.id == id && st.instance == instance {
			return nil, fmt.Errorf("pipeline: stage %s/%d already registered", id, instance)
		}
	}
	st := &Stage{
		id:        id,
		instance:  instance,
		proc:      p,
		src:       src,
		cfg:       cfg,
		clk:       e.clk,
		pacer:     clock.NewPacer(e.clk, cfg.ComputeQuantum),
		in:        queue.New[*Packet](cfg.QueueCapacity),
		ctrl:      adapt.NewController(cfg.Adapt),
		doneCh:    make(chan struct{}),
		pauseWake: make(chan struct{}),
	}
	e.stages = append(e.stages, st)
	return st, nil
}

// Connect wires from's output to to's input, optionally through an emulated
// link (nil means a free local hand-off). Connecting into a source stage or
// out of a registered-elsewhere stage is an error.
func (e *Engine) Connect(from, to *Stage, link *netsim.Link) error {
	if from == nil || to == nil {
		return errors.New("pipeline: Connect with nil stage")
	}
	if to.src != nil {
		return fmt.Errorf("pipeline: cannot connect into source stage %s/%d", to.id, to.instance)
	}
	if from == to {
		return fmt.Errorf("pipeline: self-loop on %s/%d", from.id, from.instance)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("pipeline: engine already running")
	}
	ed := &edge{to: to}
	ed.link.Store(link)
	from.outs = append(from.outs, ed)
	to.upstream = append(to.upstream, from)
	to.inbound++
	return nil
}

// Relink recomputes the links carried by every edge touching target — its
// outbound edges and its upstreams' edges into it — after the stage has
// moved to a different node. resolve maps a (from, to) stage pair to the
// link that should now carry their traffic (nil for a free local
// hand-off). Safe while the engine runs: emitters read edge links
// atomically, and a transfer already in flight on the old link completes
// there.
func (e *Engine) Relink(target *Stage, resolve func(from, to *Stage) *netsim.Link) {
	if target == nil || resolve == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, out := range target.outs {
		out.link.Store(resolve(target, out.to))
	}
	for _, up := range target.upstream {
		for _, out := range up.outs {
			if out.to == target {
				out.link.Store(resolve(up, target))
			}
		}
	}
}

// Stages returns the registered stage instances in registration order.
func (e *Engine) Stages() []*Stage {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Stage, len(e.stages))
	copy(out, e.stages)
	return out
}

// Stage returns the registered instance with the given id and ordinal.
func (e *Engine) Stage(id string, instance int) (*Stage, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.stages {
		if st.id == id && st.instance == instance {
			return st, true
		}
	}
	return nil, false
}

// Ready reports whether the engine has started and every registered stage
// instance is in the Running state — the /readyz condition of a node: a
// stage still initializing, paused for migration, or already stopped makes
// the node not ready.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	started := e.started
	stages := make([]*Stage, len(e.stages))
	copy(stages, e.stages)
	e.mu.Unlock()
	if !started || len(stages) == 0 {
		return false
	}
	for _, st := range stages {
		if st.State() != StateRunning {
			return false
		}
	}
	return true
}

// validate checks the topology is runnable.
func (e *Engine) validate() error {
	if len(e.stages) == 0 {
		return errors.New("pipeline: no stages registered")
	}
	hasSource := false
	for _, st := range e.stages {
		if st.src != nil {
			hasSource = true
			continue
		}
		if st.inbound == 0 {
			return fmt.Errorf("pipeline: processor stage %s/%d has no input", st.id, st.instance)
		}
	}
	if !hasSource {
		return errors.New("pipeline: no source stage")
	}
	return nil
}

// Run executes every stage to completion and returns the first stage error,
// or ctx's error if the run was canceled. Run may be called once.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("pipeline: engine already ran")
	}
	if err := e.validate(); err != nil {
		e.mu.Unlock()
		return err
	}
	e.started = true
	stages := make([]*Stage, len(e.stages))
	copy(stages, e.stages)
	// Resolve batch sizes and attach observability before any stage
	// goroutine starts: zero batch inherits the engine default, and
	// everything clamps to at least 1.
	for _, st := range stages {
		if st.cfg.BatchSize == 0 {
			st.cfg.BatchSize = e.defBatch
		}
		if st.cfg.BatchSize < 1 {
			st.cfg.BatchSize = 1
		}
		if st.cfg.ReplayBuffer == 0 {
			st.cfg.ReplayBuffer = e.defReplay
		}
		if st.cfg.ReplayBuffer > 0 {
			st.enableFT(st.cfg.ReplayBuffer)
		}
		if e.o != nil {
			st.o = e.o
			st.procOp = e.o.Tracer.Op("stage.process")
			st.batchOp = e.o.Tracer.Op("stage.batch")
			st.flushOp = e.o.Tracer.Op("emitter.flush")
			if st.src != nil {
				st.rootSmp = e.o.Tracer.RootSampler()
			}
			st.Instrument(e.o.Registry)
		}
	}
	o := e.o
	e.mu.Unlock()

	if o != nil {
		instrumentPool(o.Registry)
	}
	o.Log().Info("pipeline run starting", "stages", len(stages))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		adaptWg  sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for _, st := range stages {
		// The adaptation loop runs for processor stages (which own an
		// observable server queue). Source stages have no queue; their
		// parameters, if any, react only to downstream exceptions, so
		// they get an adjust-only loop when adaptation is enabled.
		if !st.cfg.DisableAdaptation {
			adaptWg.Add(1)
			go func(st *Stage) {
				defer adaptWg.Done()
				// Adaptation shares the stage's CPU-attribution bucket: its
				// epochs are work done on that stage's behalf.
				pprof.Do(ctx, pprof.Labels("stage", st.id), func(ctx context.Context) {
					st.adaptLoopFor(ctx)
				})
			}(st)
		}
		wg.Add(1)
		go func(st *Stage) {
			defer wg.Done()
			st.o.Log().Debug("stage started",
				"stage", st.id, "instance", st.instance, "node", st.Node(),
				"batch", st.cfg.BatchSize)
			st.markStarted()
			// The pprof label is what folds CPU profile samples back onto
			// this stage in the obs.Profiler attribution (DESIGN.md §14).
			var err error
			pprof.Do(ctx, pprof.Labels("stage", st.id), func(ctx context.Context) {
				err = st.run(ctx)
			})
			st.mu.Lock()
			st.err = err
			st.mu.Unlock()
			st.toState(StateStopped)
			close(st.doneCh)
			if err != nil {
				st.o.Log().Warn("stage failed",
					"stage", st.id, "instance", st.instance, "err", err)
				errOnce.Do(func() { firstErr = err })
				cancel()
			} else {
				st.o.Log().Debug("stage finished",
					"stage", st.id, "instance", st.instance)
			}
		}(st)
	}
	wg.Wait()
	cancel()
	adaptWg.Wait()
	for _, st := range stages {
		st.in.Close()
	}
	if firstErr != nil {
		o.Log().Error("pipeline run failed", "err", firstErr)
		return firstErr
	}
	o.Log().Info("pipeline run finished", "stages", len(stages))
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// adaptLoopFor dispatches to the queue-observing loop for processor stages
// and the adjust-only loop for sources.
func (s *Stage) adaptLoopFor(ctx context.Context) {
	if s.src == nil {
		s.adaptLoop(ctx)
		return
	}
	ticks := 0
	var rates epochRates
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.doneCh:
			return
		case <-s.clk.After(s.cfg.AdaptInterval):
		}
		ticks++
		if ticks%s.cfg.AdjustEvery == 0 {
			now := s.clk.Now()
			res := s.ctrl.AdjustDetailed()
			lambda, mu := rates.advance(now, s.Stats())
			s.recordAdjustment(now, res, lambda, mu)
			if s.cfg.OnAdjust != nil && len(res.Adjustments) > 0 {
				s.cfg.OnAdjust(s, now, res.Adjustments)
			}
		}
	}
}
