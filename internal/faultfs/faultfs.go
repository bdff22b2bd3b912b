// Package faultfs abstracts the small filesystem surface the WAL needs
// behind an interface, so tests can inject faults — failed writes,
// short writes, delays, and whole-process "crashes" — at a precisely
// chosen operation. Three implementations are provided: OS (the real
// filesystem), Mem (an in-memory filesystem for hermetic fast tests),
// and Injector (a wrapper that applies a deterministic fault plan to
// any inner FS).
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FS is the filesystem surface used by the durability layer.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
	// SyncDir flushes directory metadata (created/renamed/removed
	// entries) to stable storage.
	SyncDir(name string) error
}

// File is one open file handle. ReadAt lets a reader start anywhere in
// a file without reading what precedes it (the WAL's indexed tail read).
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
}

// ---------------------------------------------------------------------------
// Real filesystem.

type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(o, n string) error                   { return os.Rename(o, n) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Stat(name string) (os.FileInfo, error)  { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// In-memory filesystem.

// memFS is a flat in-memory filesystem keyed by cleaned path. It backs
// the crash-recovery tests: after a simulated crash the file contents
// are exactly the bytes written before the kill point.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.Mutex
	data []byte
}

// Mem returns an empty in-memory filesystem.
func Mem() FS {
	return &memFS{files: map[string]*memNode{}, dirs: map[string]bool{"/": true, ".": true}}
}

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &memNode{}
		m.files[name] = n
	} else if flag&os.O_TRUNC != 0 {
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
	}
	return &memFile{node: n, append: flag&os.O_APPEND != 0, writable: flag&(os.O_WRONLY|os.O_RDWR|os.O_APPEND) != 0}, nil
}

func (m *memFS) Rename(o, n string) error {
	o, n = filepath.Clean(o), filepath.Clean(n)
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.files[o]
	if !ok {
		return &os.PathError{Op: "rename", Path: o, Err: os.ErrNotExist}
	}
	m.files[n] = node
	delete(m.files, o)
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == name {
			names = append(names, filepath.Base(p))
		}
	}
	if len(names) == 0 && !m.dirs[name] {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, b := range names {
		out[i] = memDirEntry(b)
	}
	return out, nil
}

func (m *memFS) MkdirAll(path string, perm os.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	n.mu.Lock()
	size := int64(len(n.data))
	n.mu.Unlock()
	return memFileInfo{name: filepath.Base(name), size: size}, nil
}

func (m *memFS) Truncate(name string, size int64) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	n, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < 0 || size > int64(len(n.data)) {
		if size < 0 {
			return &os.PathError{Op: "truncate", Path: name, Err: os.ErrInvalid}
		}
		n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
		return nil
	}
	n.data = n.data[:size]
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }

type memFile struct {
	node     *memNode
	pos      int
	append   bool
	writable bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.pos >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += n
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	if off < 0 {
		return 0, os.ErrInvalid
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, os.ErrPermission
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.append {
		f.node.data = append(f.node.data, p...)
		return len(p), nil
	}
	// Write at the current position, extending as needed.
	for int64(f.pos)+int64(len(p)) > int64(len(f.node.data)) {
		f.node.data = append(f.node.data, 0)
	}
	copy(f.node.data[f.pos:], p)
	f.pos += len(p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return os.ErrClosed
	}
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

type memDirEntry string

func (e memDirEntry) Name() string               { return string(e) }
func (e memDirEntry) IsDir() bool                { return false }
func (e memDirEntry) Type() fs.FileMode          { return 0 }
func (e memDirEntry) Info() (fs.FileInfo, error) { return memFileInfo{name: string(e)}, nil }

type memFileInfo struct {
	name string
	size int64
}

func (i memFileInfo) Name() string       { return i.name }
func (i memFileInfo) Size() int64        { return i.size }
func (i memFileInfo) Mode() os.FileMode  { return 0o644 }
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return false }
func (i memFileInfo) Sys() any           { return nil }

// ---------------------------------------------------------------------------
// Fault injection.

// Op classifies filesystem operations for fault targeting.
type Op uint8

const (
	OpAny Op = iota
	OpOpen
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpStat
	OpTruncate
	OpMkdir
	OpSyncDir
	numOps
)

var opNames = [numOps]string{
	"any", "open", "read", "write", "sync", "close",
	"rename", "remove", "readdir", "stat", "truncate", "mkdir", "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Mode is what happens when a fault triggers.
type Mode uint8

const (
	// ModeFail returns the fault's error without performing the op.
	ModeFail Mode = iota
	// ModeShortWrite writes only Bytes bytes of a write, then errors.
	ModeShortWrite
	// ModeDelay sleeps Delay, then performs the op normally.
	ModeDelay
	// ModeCrash behaves like ModeFail (or ModeShortWrite when Bytes > 0
	// on a write) and additionally fails every subsequent operation:
	// the process "died" and only the bytes already written survive.
	ModeCrash
	// ModeHook calls Hook, then performs the op normally: a test uses it
	// to change the filesystem between two steps of the code under test
	// (say, remove a file after it was looked up and before it is opened).
	ModeHook
)

// ErrInjected is the default error returned by triggered faults.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after a ModeCrash fault.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Fault describes one deterministic fault: the Nth operation (1-based)
// matching Op triggers Mode.
type Fault struct {
	Op    Op
	N     int
	Mode  Mode
	Err   error         // returned error; nil means ErrInjected
	Bytes int           // ModeShortWrite / ModeCrash: bytes written before failing
	Delay time.Duration // ModeDelay
	Hook  func()        // ModeHook; runs with no injector lock held, so it may use the filesystem
}

// Injector wraps an FS and applies a fault plan. All counting is global
// across files and goroutine-safe, so the Nth write means the Nth write
// anywhere in the wrapped filesystem.
type Injector struct {
	inner FS

	mu      sync.Mutex
	counts  [numOps]int
	faults  []Fault
	crashed bool
}

// New wraps inner with an (initially empty) fault plan.
func New(inner FS) *Injector { return &Injector{inner: inner} }

// Add arms one fault. Multiple faults may be armed; each triggers once.
func (in *Injector) Add(f Fault) {
	if f.Err == nil {
		f.Err = ErrInjected
	}
	in.mu.Lock()
	in.faults = append(in.faults, f)
	in.mu.Unlock()
}

// Crash arms a crash at the nth write operation: the write stores only
// partial bytes of its buffer (clamped to the buffer length), then this
// and every later operation fails with ErrCrashed.
func (in *Injector) Crash(nthWrite, partial int) {
	in.Add(Fault{Op: OpWrite, N: nthWrite, Mode: ModeCrash, Err: ErrCrashed, Bytes: partial})
}

// Count returns how many operations of the given kind have been
// attempted (including failed ones).
func (in *Injector) Count(op Op) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// Crashed reports whether a ModeCrash fault has triggered.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// step counts one operation and returns the triggered fault, if any.
func (in *Injector) step(op Op) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[op]++
	if in.crashed {
		return Fault{Mode: ModeFail, Err: ErrCrashed}, true
	}
	n := in.counts[op]
	for i, f := range in.faults {
		if f.Op != op && f.Op != OpAny {
			continue
		}
		if f.N != n {
			continue
		}
		if f.Mode == ModeCrash {
			in.crashed = true
		}
		in.faults = append(in.faults[:i], in.faults[i+1:]...)
		return f, true
	}
	return Fault{}, false
}

// do runs fn unless a fault fails the operation first.
func (in *Injector) do(op Op, fn func() error) error {
	f, ok := in.step(op)
	if !ok {
		return fn()
	}
	switch f.Mode {
	case ModeDelay:
		time.Sleep(f.Delay)
		return fn()
	case ModeHook:
		f.Hook()
		return fn()
	default:
		return f.Err
	}
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	var f File
	err := in.do(OpOpen, func() error {
		var e error
		f, e = in.inner.OpenFile(name, flag, perm)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) Rename(o, n string) error {
	return in.do(OpRename, func() error { return in.inner.Rename(o, n) })
}

func (in *Injector) Remove(name string) error {
	return in.do(OpRemove, func() error { return in.inner.Remove(name) })
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	var out []fs.DirEntry
	err := in.do(OpReadDir, func() error {
		var e error
		out, e = in.inner.ReadDir(name)
		return e
	})
	return out, err
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.do(OpMkdir, func() error { return in.inner.MkdirAll(path, perm) })
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	var fi os.FileInfo
	err := in.do(OpStat, func() error {
		var e error
		fi, e = in.inner.Stat(name)
		return e
	})
	return fi, err
}

func (in *Injector) Truncate(name string, size int64) error {
	return in.do(OpTruncate, func() error { return in.inner.Truncate(name, size) })
}

func (in *Injector) SyncDir(name string) error {
	return in.do(OpSyncDir, func() error { return in.inner.SyncDir(name) })
}

type injFile struct {
	in *Injector
	f  File
}

func (f *injFile) Read(p []byte) (int, error) {
	var n int
	err := f.in.do(OpRead, func() error {
		var e error
		n, e = f.f.Read(p)
		return e
	})
	return n, err
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := f.in.do(OpRead, func() error {
		var e error
		n, e = f.f.ReadAt(p, off)
		return e
	})
	return n, err
}

func (f *injFile) Write(p []byte) (int, error) {
	fault, ok := f.in.step(OpWrite)
	if !ok {
		return f.f.Write(p)
	}
	switch fault.Mode {
	case ModeDelay:
		time.Sleep(fault.Delay)
		return f.f.Write(p)
	case ModeHook:
		fault.Hook()
		return f.f.Write(p)
	case ModeShortWrite, ModeCrash:
		k := fault.Bytes
		if k > len(p) {
			k = len(p)
		}
		n := 0
		if k > 0 {
			n, _ = f.f.Write(p[:k])
		}
		return n, fault.Err
	default:
		return 0, fault.Err
	}
}

func (f *injFile) Sync() error {
	return f.in.do(OpSync, func() error { return f.f.Sync() })
}

func (f *injFile) Close() error {
	return f.in.do(OpClose, func() error { return f.f.Close() })
}

// DescribeFault renders a fault plan entry for test failure messages.
func DescribeFault(f Fault) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s#%d", f.Op, f.N)
	switch f.Mode {
	case ModeShortWrite:
		fmt.Fprintf(&sb, " short-write(%d)", f.Bytes)
	case ModeDelay:
		fmt.Fprintf(&sb, " delay(%v)", f.Delay)
	case ModeCrash:
		fmt.Fprintf(&sb, " crash(partial=%d)", f.Bytes)
	case ModeHook:
		sb.WriteString(" hook")
	default:
		sb.WriteString(" fail")
	}
	return sb.String()
}
