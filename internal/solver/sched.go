package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The component pool — the single dispatch primitive behind General, KTwo,
// and internal/incr's dirty-component re-solves, per the paper's Section 3
// remark that the decomposition "allows us to solve all sub-instances in
// parallel". Components are independent and each is a fixed amount of work,
// so the workers need no coordination beyond one shared counter handing out
// the next component, largest first.

// ForEachComponent runs fn(i) for every component index i in [0, n). The
// calling goroutine and workers−1 more take indices from a shared counter,
// where workers is parallelism (≤ 1 = one worker, < 0 = GOMAXPROCS) capped
// at n. With more than one worker and a non-nil size hint, components are
// handed out largest first so stragglers start early; otherwise in index
// order.
//
// Contracts:
//
//   - Determinism: fn must write results into per-index slots, so the
//     caller's concatenation is independent of scheduling.
//   - The first failure (fn error, recovered panic, or the context firing)
//     stops dispatch: components not yet started are never run. In-flight
//     components finish, and their failures are aggregated too.
//   - Bare context errors pass through for errors.Is; other failures are
//     wrapped, multiple concurrent ones joined via errors.Join in component
//     order.
func ForEachComponent(ctx context.Context, n, parallelism int, size func(i int) int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))

	p := &pool{ctx: ctx, n: int64(n), fn: fn}
	if size != nil && workers > 1 {
		p.order = make([]int, n)
		for i := range p.order {
			p.order[i] = i
		}
		sort.SliceStable(p.order, func(a, b int) bool { return size(p.order[a]) > size(p.order[b]) })
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()

	if workers > 1 {
		p.emit(workers)
	}
	return p.err()
}

// pool is the shared state of one ForEachComponent run.
type pool struct {
	ctx   context.Context
	n     int64
	order []int // dispatch order; nil = index order
	fn    func(i int) error
	next  atomic.Int64 // next position in the dispatch order
	quit  atomic.Bool  // set on first failure: no further component starts
	ran   atomic.Int64

	mu   sync.Mutex
	errs []schedErr
}

// schedErr is one recorded failure, attributed to a component index.
type schedErr struct {
	index int
	err   error
}

// work runs components until the order is exhausted or dispatch stops. A
// component is failed without running when the context has already fired.
func (p *pool) work() {
	done := p.ctx.Done()
	for !p.quit.Load() {
		k := p.next.Add(1) - 1
		if k >= p.n {
			return
		}
		i := int(k)
		if p.order != nil {
			i = p.order[k]
		}
		if done != nil {
			select {
			case <-done:
				p.fail(i, p.ctx.Err())
				return
			default:
			}
		}
		p.ran.Add(1)
		if err := runRecover(i, p.fn); err != nil {
			p.fail(i, err)
		}
	}
}

func (p *pool) fail(index int, err error) {
	p.quit.Store(true)
	p.mu.Lock()
	p.errs = append(p.errs, schedErr{index: index, err: err})
	p.mu.Unlock()
}

// err assembles the run's outcome: nil, a bare context error (so callers'
// errors.Is(err, context.Canceled/DeadlineExceeded) keep working), a single
// wrapped failure, or an errors.Join of every concurrent failure in
// component order.
func (p *pool) err() error {
	if len(p.errs) == 0 {
		return nil
	}
	sort.SliceStable(p.errs, func(a, b int) bool { return p.errs[a].index < p.errs[b].index })
	allCtx := true
	list := make([]error, 0, len(p.errs))
	for _, se := range p.errs {
		if !isContextErr(se.err) {
			allCtx = false
		}
		list = append(list, se.err)
	}
	if allCtx {
		return list[0]
	}
	if len(list) == 1 {
		return fmt.Errorf("solver: component failed: %w", list[0])
	}
	return fmt.Errorf("solver: %d components failed: %w", len(list), errors.Join(list...))
}

// emit records a parallel run's counters on the enclosing span (attr
// sched_workers) and, when the trace carries a metrics registry, the
// mc3_sched_* metrics. Called after the pool has drained, from the
// dispatching goroutine that owns the span.
func (p *pool) emit(workers int) {
	sp := obs.FromContext(p.ctx)
	if sp == nil {
		return
	}
	sp.SetAttr(obs.Int("sched_workers", workers))
	if m := sp.Tracer().Metrics(); m != nil {
		m.Counter("mc3_sched_runs_total").Inc()
		m.Counter("mc3_sched_components_total").Add(p.n)
		m.Counter("mc3_sched_tasks_total").Add(p.ran.Load())
		m.Gauge("mc3_sched_workers").Set(float64(workers))
	}
}

// runRecover runs fn(index), converting a panic into an error attributed to
// the component.
func runRecover(index int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("solver: component %d panicked: %v", index, r)
		}
	}()
	return fn(index)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
