package wal

import (
	"fmt"
	"testing"
)

// BenchmarkWALTailPull is what one replication pull costs the log, with
// 1k / 10k / 100k frames already in the active segment: a caught-up pull
// (nothing past the follower's position) and a pull of the last 64
// frames. Both must be flat in how full the segment is — the reader this
// replaced re-read and re-checksummed the whole segment for either.
func BenchmarkWALTailPull(b *testing.B) {
	payload := make([]byte, 99) // one serve WAL record
	for _, resident := range []int{1_000, 10_000, 100_000} {
		l, _, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 64 << 20, SyncEvery: SyncNever}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, pull := range []struct {
			name   string
			frames int
		}{{"caught_up", 0}, {"pull64", 64}} {
			b.Run(fmt.Sprintf("%s/resident=%d", pull.name, resident), func(b *testing.B) {
				from := uint64(resident - pull.frames + 1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					got := 0
					if _, err := l.ReadFrom(from, func(uint64, []byte) error { got++; return nil }); err != nil || got != pull.frames {
						b.Fatalf("pull delivered %d frames, err %v", got, err)
					}
				}
			})
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
