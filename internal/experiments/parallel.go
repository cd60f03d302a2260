package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// runParallel maps fn over names with bounded concurrency, preserving input
// order in the result. Each benchmark's simulation is independent and
// deterministic, so parallel execution produces byte-identical results to a
// sequential run.
//
// The driver is hardened against misbehaving work units: a panic inside fn
// is recovered and converted into an error attributed to the benchmark that
// raised it (the process never crashes), and when several units fail, every
// failure is reported via errors.Join rather than only the first. Work units
// not yet started when ctx is canceled are skipped; the context error is
// reported once.
func runParallel[T any](ctx context.Context, names []string, fn func(name string) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(names)
	results := make([]T, n)
	errs := make([]error, n)
	sem := make(chan struct{}, maxWorkers())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("benchmark %q: panic: %v\n%s", names[i], r, debug.Stack())
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = fn(names[i])
		}(i)
	}
	wg.Wait()
	// Aggregate every failure in input order; a canceled context produces
	// one error per unstarted unit, collapsed to a single report.
	var failures []error
	ctxReported := false
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if !ctxReported {
				failures = append(failures, err)
				ctxReported = true
			}
		default:
			failures = append(failures, err)
		}
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return results, nil
}

// concat joins per-benchmark results in benchmark order.
func concat[T any](perBench [][]T) []T {
	var out []T
	for _, part := range perBench {
		out = append(out, part...)
	}
	return out
}

func maxWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}
