package solver

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachComponentAggregatesConcurrentErrors is the regression test for
// the flat dispatcher dropping all-but-first concurrent failures: two
// components rendezvous on a barrier so both are mid-flight when they fail,
// and both sentinels must be visible through errors.Is on the joined error.
func TestForEachComponentAggregatesConcurrentErrors(t *testing.T) {
	errA := errors.New("component A exploded")
	errB := errors.New("component B exploded")
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait() // both components are in flight; both will fail
		if i == 0 {
			return errA
		}
		return errB
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, errA) {
		t.Errorf("errors.Is(err, errA) = false; err = %v", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("errors.Is(err, errB) = false; err = %v", err)
	}
	if !strings.Contains(err.Error(), "2 components failed") {
		t.Errorf("error message should count the failures: %v", err)
	}
}

// TestForEachComponentConcurrentContextErrorsStayBare checks that when every
// concurrent failure is a context error, the aggregate is still the bare
// context error (not a join), so callers' errors.Is checks and error
// equality both keep working.
func TestForEachComponentConcurrentContextErrorsStayBare(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait()
		return context.Canceled
	})
	if err != context.Canceled {
		t.Fatalf("want bare context.Canceled, got %v", err)
	}
}

// TestForEachComponentMixedContextAndRealErrors: a real failure alongside a
// context error must surface the real failure (wrapped or joined), and both
// must remain matchable.
func TestForEachComponentMixedContextAndRealErrors(t *testing.T) {
	boom := errors.New("boom")
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEachComponent(context.Background(), 2, 2, nil, func(i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return context.Canceled
		}
		return boom
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, boom) {
		t.Errorf("errors.Is(err, boom) = false; err = %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
}

// TestForEachComponentStealsUnderImbalance gives one worker a long-running
// component and checks the other worker steals the rest: everything completes
// even though the seeded shares are maximally unbalanced.
func TestForEachComponentStealsUnderImbalance(t *testing.T) {
	const n = 16
	release := make(chan struct{})
	var done atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		errCh <- ForEachComponent(context.Background(), n, 2,
			func(i int) int {
				if i == 0 {
					return 1 << 20 // component 0 dominates; seeded first
				}
				return 1
			},
			func(i int) error {
				if i == 0 {
					<-release // hold worker 0 hostage
				}
				done.Add(1)
				return nil
			})
	}()
	// All other components must finish while component 0 blocks its worker.
	deadline := time.Now().Add(10 * time.Second)
	for done.Load() < n-1 {
		if time.Now().After(deadline) {
			got := done.Load()
			close(release)
			t.Fatalf("only %d/%d components finished while one worker was blocked; stealing broken?", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestForEachComponentLargestFirst checks the dispatch order. With two
// workers and distinct size hints, the first two components entered are the
// two largest: each of them holds its worker at a barrier until the other
// has entered, so no third component can start before both. With one
// worker, components run in index order whatever the hints.
func TestForEachComponentLargestFirst(t *testing.T) {
	const n = 8
	size := func(i int) int { return (i * 5) % n } // distinct; largest are 3 (7) and 6 (6)
	var (
		mu      sync.Mutex
		entered []int
		barrier sync.WaitGroup
	)
	barrier.Add(2)
	err := ForEachComponent(context.Background(), n, 2, size, func(i int) error {
		mu.Lock()
		entered = append(entered, i)
		first := len(entered) <= 2
		mu.Unlock()
		if first {
			barrier.Done()
			barrier.Wait()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entered) != n {
		t.Fatalf("ran %d of %d components", len(entered), n)
	}
	if a, b := min(entered[0], entered[1]), max(entered[0], entered[1]); a != 3 || b != 6 {
		t.Errorf("first two components entered = %v, want the two largest {3, 6}", entered[:2])
	}

	entered = entered[:0]
	err = ForEachComponent(context.Background(), n, 1, size, func(i int) error {
		entered = append(entered, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range entered {
		if i != k {
			t.Fatalf("parallelism 1 ran %v, want index order", entered)
		}
	}
}
