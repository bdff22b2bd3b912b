// Package parallel provides the small shared-memory parallel runtime used
// by the simulator, the random forest, and the evaluation harness: a
// chunked parallel-for and a reusable worker pool.
//
// For hands every index to its function exactly once, so callers that
// write slot i from input i with a per-item RNG get identical results at
// any worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves the worker count for n items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(i) for every i in [0, n) using the given number of workers
// (<= 0 means DefaultWorkers). Iterations are distributed dynamically in
// contiguous chunks so uneven per-item costs balance out.
func For(workers, n int, fn func(i int)) {
	workers = clampWorkers(workers, n)
	if n == 0 {
		return
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Chunk size balances scheduling overhead against load balance.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Pool is a reusable fixed-size worker pool for irregular task graphs
// (e.g. growing forest trees while the caller streams in work).
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	once  sync.Once
}

// NewPool starts a pool with the given number of workers (<= 0 means
// DefaultWorkers).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{tasks: make(chan func(), workers*2)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range p.tasks {
				t()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Submit enqueues a task. It must not be called after Close.
func (p *Pool) Submit(task func()) {
	p.wg.Add(1)
	p.tasks <- task
}

// Wait blocks until all submitted tasks have completed.
func (p *Pool) Wait() { p.wg.Wait() }

// Close waits for outstanding tasks and shuts the workers down. A pool
// cannot be reused after Close; Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.wg.Wait()
		close(p.tasks)
	})
}
