package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestPool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var counter int64
	for i := 0; i < 500; i++ {
		p.Submit(func() { atomic.AddInt64(&counter, 1) })
	}
	p.Wait()
	if counter != 500 {
		t.Fatalf("pool ran %d tasks, want 500", counter)
	}
	// Pool must be reusable after Wait.
	for i := 0; i < 100; i++ {
		p.Submit(func() { atomic.AddInt64(&counter, 1) })
	}
	p.Wait()
	if counter != 600 {
		t.Fatalf("pool ran %d tasks after reuse, want 600", counter)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() {})
	p.Close()
	p.Close() // must not panic
}

func TestClampWorkers(t *testing.T) {
	if w := clampWorkers(-1, 100); w != DefaultWorkers() {
		t.Errorf("clampWorkers(-1, 100) = %d", w)
	}
	if w := clampWorkers(8, 3); w != 3 {
		t.Errorf("clampWorkers(8, 3) = %d, want 3", w)
	}
	if w := clampWorkers(8, 0); w != 1 {
		t.Errorf("clampWorkers(8, 0) = %d, want 1", w)
	}
}

// Property: For with any worker count computes the same multiset of
// results as a serial loop.
func TestForEquivalentToSerialProperty(t *testing.T) {
	prop := func(nRaw uint16, workersRaw uint8) bool {
		n := int(nRaw % 500)
		workers := int(workersRaw%16) + 1
		par := make([]int64, n)
		For(workers, n, func(i int) { par[i] = int64(i) * 3 })
		for i := 0; i < n; i++ {
			if par[i] != int64(i)*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
