package solver

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// expiringCtx is a context whose deadline "fires" exactly when the test says
// so, making deadline-after-first-candidate deterministic.
type expiringCtx struct {
	context.Context
	mu   sync.Mutex
	done chan struct{}
	err  error
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *expiringCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.DeadlineExceeded
		close(c.done)
	}
}

// expireAfterFirstCandidate expires ctx the moment the first portfolio
// candidate span completes.
type expireAfterFirstCandidate struct {
	ctx *expiringCtx
	n   atomic.Int64
}

func (s *expireAfterFirstCandidate) Span(ev obs.Event) {
	if ev.Name == SpanCandidate && s.n.Add(1) == 1 {
		s.ctx.expire()
	}
}

// TestPortfolioDeadlineKeepsBestSoFar is the anytime-contract regression: a
// deadline that fires after the first candidate succeeded must not lose that
// solution — the portfolio returns it with a nil error and records the
// truncation in stats.
func TestPortfolioDeadlineKeepsBestSoFar(t *testing.T) {
	inst := adversarialInstance(t, 200, 30, 7)
	ctx := newExpiringCtx()
	sink := &expireAfterFirstCandidate{ctx: ctx}
	var stats SolveStats
	opts := DefaultOptions()
	opts.Context = ctx
	opts.Tracer = obs.New(sink)
	opts.Stats = &stats
	opts.Validate = true

	sol, err := Portfolio(inst, opts)
	if err != nil {
		t.Fatalf("truncated portfolio lost its solution: %v", err)
	}
	if sol == nil {
		t.Fatal("nil solution with nil error")
	}
	if err := inst.Verify(sol); err != nil {
		t.Fatal(err)
	}
	if n := sink.n.Load(); n != 1 {
		t.Errorf("%d candidates ran after the deadline, want 1", n)
	}
	if stats.Winner != "mc3-general" {
		t.Errorf("winner = %q, want mc3-general (the only candidate that ran)", stats.Winner)
	}
	if !stats.Cancelled || stats.CancelReason != "deadline" {
		t.Errorf("stats = cancelled=%v reason=%q, want truncation recorded as deadline",
			stats.Cancelled, stats.CancelReason)
	}
}

// TestPortfolioCancelBeforeAnyCandidate: truncation before the first result
// still fails — the anytime contract only protects completed work.
func TestPortfolioCancelBeforeAnyCandidate(t *testing.T) {
	inst := adversarialInstance(t, 200, 30, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Context = ctx
	if sol, err := Portfolio(inst, opts); err == nil || sol != nil {
		t.Fatalf("got (%v, %v), want (nil, error) with no completed candidate", sol, err)
	}
}
