package storage

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
)

// ErrCorrupt is the shared loud-error vocabulary of every backend: any
// failure that means "the bytes on stable storage are not what a correct
// writer left there" — a bad record header, a truncated record, a delta
// whose base is missing, a checksum mismatch in the log — wraps it. Chaos
// oracles and tests match with errors.Is(err, ErrCorrupt) instead of
// strings, so the record decoder and the log store's replay cannot drift
// into different dialects of "corrupt".
var ErrCorrupt = errors.New("corrupt stable storage")

// corruptf builds an ErrCorrupt-wrapped error. A non-nil cause is chained
// too, so both errors.Is(err, ErrCorrupt) and unwrapping to the root cause
// work.
func corruptf(cause error, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if cause != nil {
		return fmt.Errorf("%w: %w", err, errors.Join(ErrCorrupt, cause))
	}
	return fmt.Errorf("%w: %w", err, ErrCorrupt)
}

// Backend names a stable-storage implementation. Mem is built in; the
// segmented log store (internal/storage/logstore) registers itself via
// RegisterBackend from an init function, so Open resolves it once its
// package is imported.
type Backend string

// Built-in and registered backends.
const (
	// Mem is the in-memory accounting store (MemStore); dir is ignored.
	Mem Backend = "mem"
	// Log is the segmented group-commit log store
	// (internal/storage/logstore); importing that package registers it.
	Log Backend = "log"
)

// ParseBackend parses a backend name as the CLIs spell it.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case Mem, Log:
		return Backend(s), nil
	default:
		return "", fmt.Errorf("storage: unknown backend %q (want mem or log)", s)
	}
}

var (
	backendMu sync.RWMutex
	backends  = map[Backend]func(dir string) (Store, error){}
)

// RegisterBackend makes Open able to construct backend b. It is meant to be
// called from the init function of the package implementing the backend;
// registering a name twice panics, like registering a duplicate flag.
func RegisterBackend(b Backend, open func(dir string) (Store, error)) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[b]; dup || b == Mem {
		panic(fmt.Sprintf("storage: backend %q registered twice", b))
	}
	backends[b] = open
}

// Open opens a store of the selected backend rooted at dir (ignored by
// Mem). It is the one construction path the engines, the facade and the
// CLIs share, so every layer can run every backend.
func Open(b Backend, dir string) (Store, error) {
	if b == Mem {
		return NewMemStore(), nil
	}
	backendMu.RLock()
	open := backends[b]
	backendMu.RUnlock()
	if open == nil {
		return nil, fmt.Errorf("storage: backend %q not available (is its package imported?)", b)
	}
	return open(dir)
}

// Close releases whatever a store returned by Open holds: the log store's
// goroutines and tail segment (committing its staged tombstones); MemStore
// holds nothing. The rule for the engines is that whoever opened a store
// closes it.
func Close(s Store) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Factory adapts Open to the per-process NewStore hook of the engines
// (internal/sim, internal/runtime, internal/chaos): process i opens
// <dir>/p<i>.
func Factory(b Backend, dir string) func(self int) (Store, error) {
	return func(self int) (Store, error) {
		return Open(b, filepath.Join(dir, fmt.Sprintf("p%d", self)))
	}
}
