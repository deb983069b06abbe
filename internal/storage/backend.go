package storage

import (
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt is the shared loud-error vocabulary of every backend: any
// failure that means "the bytes on stable storage are not what a correct
// writer left there" — a bad record header, a truncated record, a checksum
// mismatch in the log — wraps it. Chaos
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

// Backend names a stable-storage implementation, as the CLIs and the facade
// select it. Each has one constructor: NewMemStore for Mem, and for Log
// logstore.Open or, per process, logstore.Factory
// (internal/storage/logstore).
type Backend string

// The two backends.
const (
	// Mem is the in-memory store (MemStore).
	Mem Backend = "mem"
	// Log is the group-commit log store, kept in generations
	// (internal/storage/logstore).
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

// Close releases whatever a store holds: the log store's committer goroutine
// and generation file (committing its staged tombstones); MemStore holds
// nothing. The rule for the engines is that whoever opened a store closes
// it.
func Close(s Store) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
