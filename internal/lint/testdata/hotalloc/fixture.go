// Package hotalloc is the analyzer fixture: the functions the scope
// table lists for this package (Render, Bad, Cold, Allowed) must be
// allocation-free outside CFG-detected error paths; everything else may
// allocate freely.
package hotalloc

import (
	"errors"
	"fmt"
	"strconv"
)

type point struct{ x, y int }

func sink(v any) { _ = v }

// Render is the shape the contract wants: self-appends and
// strconv.Append* helpers into a caller-owned buffer.
func Render(buf []byte, vals []int64) []byte {
	for _, v := range vals {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, v, 10)
	}
	return append(buf, '\n')
}

// Bad collects one of each allocation class.
func Bad(buf []byte, other []byte, n int64) []byte {
	scratch := make([]byte, 0, 8) // want "make allocates"
	scratch = append(scratch, 'x')
	tmp := append(other, scratch...) // want "append outside the x = append"
	_ = tmp
	s := string(buf) // want "conversion copies"
	t := []byte(s)   // want "conversion copies"
	_ = t
	u := "v=" + s // want "string concatenation"
	_ = u
	box := fmt.Sprint(n) // want "fmt.Sprint allocates"
	_ = box
	p := &point{1, 2} // want "address of composite literal"
	_ = p
	m := map[string]int{} // want "map/slice literal"
	_ = m
	sl := []int{1, 2} // want "map/slice literal"
	_ = sl
	f := func() {} // want "function literal allocates its closure"
	f()
	sink(n) // want "boxed into an interface"
	return buf
}

// Cold shows the error-path exemption: every statement in the failing
// branch continues only into an error-constructing return, so the
// Sprintf and the boxing inside it are exempt.
func Cold(buf []byte, n int) ([]byte, error) {
	if n < 0 {
		msg := fmt.Sprintf("bad n: %d", n)
		return nil, errors.New(msg)
	}
	return append(buf, byte(n)), nil
}

// Allowed shows inline suppression of an accepted allocation.
func Allowed() []int {
	//ssdlint:allow hotalloc first-sight allocation, amortized across the run
	return []int{1, 2, 3}
}

// NotHot allocates at will: no table entry, no findings.
func NotHot(n int64) string {
	return fmt.Sprint(n)
}
