package forest

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ssdfail/internal/ml/mltest"
)

// sharedChildForest is a one-tree forest file whose tree the tree
// decoder accepts — every child after its parent and inside the tree —
// but whose node 2 is the child of both node 0 and node 1. The flat
// layout puts each split's children side by side, which two parents
// cannot share, so the forest decoder must reject it.
func sharedChildForest() []byte {
	var tb []byte
	w32 := func(v uint32) { tb = binary.LittleEndian.AppendUint32(tb, v) }
	node := func(feature int32, left, right uint32, prob float64) {
		w32(uint32(feature))
		tb = binary.LittleEndian.AppendUint64(tb, math.Float64bits(0.5))
		w32(left)
		w32(right)
		tb = binary.LittleEndian.AppendUint64(tb, math.Float64bits(prob))
	}
	tb = append(tb, "TREE"...)
	w32(1) // version
	w32(1) // width
	w32(4) // nodes
	node(0, 1, 2, 0)
	node(0, 2, 3, 0)
	node(-1, 0, 0, 0.25)
	node(-1, 0, 0, 0.75)
	tb = binary.LittleEndian.AppendUint64(tb, math.Float64bits(1)) // importance
	out := append([]byte(forestMagic), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[4:], forestVersion)
	binary.LittleEndian.PutUint32(out[8:], 1)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(tb)))
	return append(out, tb...)
}

func TestForestSerializationRoundTrip(t *testing.T) {
	train := mltest.TwoBlobs(200, 3, 1)
	f := New(Config{Trees: 20, MaxDepth: 8, MinLeaf: 2, Seed: 3})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Forest
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.TreeCount() != f.TreeCount() {
		t.Fatalf("tree count %d vs %d", g.TreeCount(), f.TreeCount())
	}
	for i := 0; i < train.Len(); i += 7 {
		x := train.Row(i)
		if f.Score(x) != g.Score(x) {
			t.Fatalf("score mismatch at row %d", i)
		}
	}
	fi, gi := f.Importances(), g.Importances()
	for i := range fi {
		if fi[i] != gi[i] {
			t.Fatal("importances differ after round trip")
		}
	}
}

func TestForestUnmarshalRejectsGarbage(t *testing.T) {
	var f Forest
	cases := [][]byte{
		nil,
		[]byte("junk"),
		[]byte("FRSTxxxxxxxxxxxx"),
	}
	for _, c := range cases {
		if err := f.UnmarshalBinary(c); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// Truncation of a valid stream must fail, not panic.
	train := mltest.TwoBlobs(50, 3, 2)
	g := New(Config{Trees: 3, MaxDepth: 4, MinLeaf: 2, Seed: 1})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	data, _ := g.MarshalBinary()
	for _, cut := range []int{5, 13, len(data) / 2, len(data) - 3} {
		if err := f.UnmarshalBinary(data[:cut]); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

func TestForestUnmarshalCorruptInputs(t *testing.T) {
	train := mltest.TwoBlobs(50, 3, 2)
	g := New(Config{Trees: 3, MaxDepth: 4, MinLeaf: 2, Seed: 1})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	valid, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() []byte { return append([]byte(nil), valid...) }
	put32 := func(b []byte, off int, v uint32) []byte {
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error
	}{
		{"bad magic", append([]byte("FRSX"), fresh()[4:]...), "bad magic"},
		{"wrong version", put32(fresh(), 4, forestVersion+1), "unsupported version"},
		{"header only", fresh()[:12], "exceeds payload size"},
		// A tree count the remaining bytes cannot possibly hold must be
		// rejected before allocating count pointers (alloc bomb).
		{"tree count bomb", put32(fresh(), 8, 1<<19), "exceeds payload size"},
		{"tree count implausible", put32(fresh(), 8, 1<<21), "implausible tree count"},
		{"tree length past end", put32(fresh(), 12, 1<<30), "truncated tree 0"},
		{"trailing garbage", append(fresh(), 0xca, 0xfe), "trailing"},
		// Corrupting an inner tree's magic must fail with the tree's
		// position in the message, not be skipped.
		{"inner tree corrupt", put32(fresh(), 16, 0), "tree 0"},
		{"shared child", sharedChildForest(), "shares a child"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f Forest
			err := f.UnmarshalBinary(tc.data)
			if err == nil {
				t.Fatalf("accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
