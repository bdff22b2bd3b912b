package forest

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ssdfail/internal/ml/tree"
)

// Binary serialization of a trained forest. Layout (little-endian):
//
//	magic "FRST" | version u32 | treeCount u32
//	treeCount * (byteLen u32, tree bytes)

const (
	forestMagic   = "FRST"
	forestVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Forest) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(forestMagic)
	w32 := func(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); buf.Write(b[:]) }
	w32(forestVersion)
	w32(uint32(len(f.trees)))
	for _, t := range f.trees {
		tb, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w32(uint32(len(tb)))
		buf.Write(tb)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The payload is
// untrusted (the serving daemon loads it from disk at runtime): the
// declared tree count is checked against the bytes actually present
// before allocating, every tree must decode from exactly its declared
// span, trailing garbage after the last tree is rejected, and the trees
// must pass the flat layout's structural checks (newFlat).
func (f *Forest) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || string(data[:4]) != forestMagic {
		return fmt.Errorf("forest: bad magic")
	}
	off := 4
	r32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("forest: truncated")
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	ver, err := r32()
	if err != nil || ver != forestVersion {
		return fmt.Errorf("forest: unsupported version")
	}
	count, err := r32()
	if err != nil {
		return err
	}
	if count > 1<<20 {
		return fmt.Errorf("forest: implausible tree count %d", count)
	}
	// Each tree costs at least a length prefix; a count the remaining
	// bytes cannot hold is corrupt — reject before allocating for it.
	if int(count) > (len(data)-off)/4 {
		return fmt.Errorf("forest: tree count %d exceeds payload size %d", count, len(data))
	}
	f.trees = make([]*tree.Tree, count)
	f.flat = nil
	for i := range f.trees {
		n, err := r32()
		if err != nil {
			return err
		}
		if int(n) < 0 || off+int(n) > len(data) {
			return fmt.Errorf("forest: truncated tree %d", i)
		}
		t := &tree.Tree{}
		if err := t.UnmarshalBinary(data[off : off+int(n)]); err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		f.trees[i] = t
		off += int(n)
	}
	if off != len(data) {
		return fmt.Errorf("forest: %d trailing bytes after last tree", len(data)-off)
	}
	fl, err := newFlat(f.trees)
	if err != nil {
		return err
	}
	f.flat = fl
	return nil
}
