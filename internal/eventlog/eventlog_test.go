package eventlog

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type ev int

func (e ev) String() string { return fmt.Sprintf("t=%d", int(e)) }

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink down") }

// TestDecisionLogRing pins the ring and sink contract every decision
// log relies on: wrap order, Recent windows, the lifetime total, one
// sink line per event, a latched sink error, and concurrent use.
func TestDecisionLogRing(t *testing.T) {
	const n = DefaultRingCap + 2
	var sink bytes.Buffer
	l := New[ev](&sink)
	if got := l.Recent(0); len(got) != 0 {
		t.Fatalf("empty log Recent(0) = %v", got)
	}
	for i := 1; i <= n; i++ {
		l.Append(ev(i))
	}
	if l.Total() != n {
		t.Fatalf("total = %d, want %d", l.Total(), n)
	}
	for _, tc := range []struct {
		n           int
		first, last ev
		len         int
	}{
		{n: 0, first: 3, last: n, len: DefaultRingCap},
		{n: -1, first: 3, last: n, len: DefaultRingCap},
		{n: 2, first: n - 1, last: n, len: 2},
		{n: DefaultRingCap + 10, first: 3, last: n, len: DefaultRingCap},
	} {
		got := l.Recent(tc.n)
		if len(got) != tc.len || got[0] != tc.first || got[len(got)-1] != tc.last {
			t.Errorf("Recent(%d) = %v, want %d events %v..%v", tc.n, got, tc.len, tc.first, tc.last)
			continue
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				t.Errorf("Recent(%d) not oldest first at %d: %v after %v", tc.n, i, got[i], got[i-1])
				break
			}
		}
	}
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("sink got %d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		if want := ev(i + 1).String(); line != want {
			t.Fatalf("sink line %d = %q, want %q", i, line, want)
		}
	}
	if l.Err() != nil {
		t.Fatalf("healthy sink reported %v", l.Err())
	}

	t.Run("sink error latches", func(t *testing.T) {
		l := New[ev](failWriter{})
		l.Append(1)
		if l.Err() == nil {
			t.Fatal("sink error not latched")
		}
		l.Append(2)
		if got := l.Recent(0); len(got) != 2 || got[1] != 2 || l.Total() != 2 {
			t.Fatalf("ring after sink error = %v, total %d", got, l.Total())
		}
	})

	t.Run("concurrent append and recent", func(t *testing.T) {
		l := New[ev](nil)
		const writers, each = 4, 200
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					l.Append(ev(i))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if got := l.Recent(5); len(got) > 5 {
						t.Errorf("Recent(5) returned %d events", len(got))
						return
					}
				}
			}()
		}
		wg.Wait()
		if l.Total() != writers*each || len(l.Recent(0)) != DefaultRingCap {
			t.Fatalf("total %d, ring %d", l.Total(), len(l.Recent(0)))
		}
	})
}
