package sparepool

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func TestPoolAllocateSequentialIDs(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Allocate(11)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 1 || s2 != 2 {
		t.Fatalf("spare IDs = %d, %d, want 1, 2 (sequential in allocation order)", s1, s2)
	}
	st := p.Stats()
	if st.Free != 0 || st.InUse != 2 || st.Capacity != 2 || st.Allocations != 2 {
		t.Fatalf("stats after allocations = %+v", st)
	}
}

func TestPoolDoubleAllocateIsError(t *testing.T) {
	p, _ := NewPool(5)
	if _, err := p.Allocate(7); err != nil {
		t.Fatal(err)
	}
	_, err := p.Allocate(7)
	if !errors.Is(err, ErrDoubleAllocate) {
		t.Fatalf("second allocate = %v, want ErrDoubleAllocate", err)
	}
	// The refused allocation consumed nothing.
	st := p.Stats()
	if st.Free != 4 || st.InUse != 1 || st.DoubleAllocates != 1 {
		t.Fatalf("stats after double allocate = %+v", st)
	}
}

func TestPoolExhaustionAndRestock(t *testing.T) {
	p, _ := NewPool(1)
	if _, err := p.Allocate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(2); !errors.Is(err, ErrExhausted) {
		t.Fatalf("allocate from empty pool = %v, want ErrExhausted", err)
	}
	if st := p.Stats(); st.Exhaustions != 1 {
		t.Fatalf("stats = %+v, want 1 exhaustion", st)
	}
	if err := p.Restock(2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(2); err != nil {
		t.Fatalf("allocate after restock: %v", err)
	}
	st := p.Stats()
	if st.Capacity != 3 || st.Free != 1 || st.InUse != 2 {
		t.Fatalf("stats after restock = %+v", st)
	}
	if err := p.Restock(-1); err == nil {
		t.Fatal("negative restock should error")
	}
}

func TestPoolRejectsNegativeInitial(t *testing.T) {
	if _, err := NewPool(-1); err == nil {
		t.Fatal("negative initial stock should error")
	}
}

// TestPoolConcurrentActuation hammers the pool from many goroutines
// under -race: every drive allocates twice while a restocker adds spares,
// and the books must balance exactly at the end — no spare lost, none
// minted, every duplicate counted.
func TestPoolConcurrentActuation(t *testing.T) {
	const (
		drives   = 32
		stock    = 8
		restocks = 24
	)
	p, _ := NewPool(stock)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < restocks; i++ {
			if err := p.Restock(1); err != nil {
				t.Errorf("restock: %v", err)
				return
			}
		}
	}()
	var mu sync.Mutex
	held, doubles := 0, 0
	for d := 0; d < drives; d++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for {
				_, err := p.Allocate(id)
				if errors.Is(err, ErrExhausted) {
					// Contention, not corruption; wait for the restocker.
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("drive %d: allocate: %v", id, err)
					return
				}
				break
			}
			_, err := p.Allocate(id)
			if !errors.Is(err, ErrDoubleAllocate) {
				t.Errorf("drive %d: second allocate = %v, want ErrDoubleAllocate", id, err)
				return
			}
			mu.Lock()
			held++
			doubles++
			mu.Unlock()
		}(uint32(d))
	}
	wg.Wait()
	st := p.Stats()
	if st.Capacity != stock+restocks || st.InUse != held || st.Free != st.Capacity-held {
		t.Fatalf("pool did not balance with %d held: %+v", held, st)
	}
	if st.Allocations != uint64(held) || st.DoubleAllocates != uint64(doubles) {
		t.Fatalf("books off: %+v, want %d allocations and %d duplicates", st, held, doubles)
	}
}

// TestPoolConcurrentExhaustion drives far more claimants than stock and
// verifies the pool never over-allocates: at every moment at most
// `stock` spares are out, which the final books confirm.
func TestPoolConcurrentExhaustion(t *testing.T) {
	const (
		claimants = 64
		stock     = 4
	)
	p, _ := NewPool(stock)
	var wg sync.WaitGroup
	var mu sync.Mutex
	winners := 0
	for d := 0; d < claimants; d++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			if _, err := p.Allocate(id); err == nil {
				mu.Lock()
				winners++
				mu.Unlock()
			} else if !errors.Is(err, ErrExhausted) {
				t.Errorf("drive %d: %v", id, err)
			}
		}(uint32(d))
	}
	wg.Wait()
	if winners != stock {
		t.Fatalf("%d allocations succeeded, want exactly %d", winners, stock)
	}
	st := p.Stats()
	if st.Free != 0 || st.InUse != stock || st.Exhaustions != claimants-stock {
		t.Fatalf("stats = %+v", st)
	}
}
