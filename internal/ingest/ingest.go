// Package ingest is the durability and publication machinery behind
// writable tables: a CRC-framed append-only write-ahead log (WAL) that
// makes appended rows durable before they are queryable, a crash-atomic
// manifest that names the current epoch's base snapshot and WAL, and a
// panic-isolated background merger loop with bounded retry/backoff.
//
// The paper's setting (§2, after Krueger et al.) keeps base data
// read-optimised and funnels writes through a small write-optimised delta
// that merges periodically. This package supplies the robustness half of
// that design — everything that must survive a crash or a fault — while
// the facade (byteslice.IngestTable) owns the in-memory epoch views and
// the delta's ByteSlice columns. The split keeps the I/O protocol
// testable byte-by-byte without a table in sight: the fault sweeps in
// wal_test.go drive every offset of a WAL through truncation, bit flips
// and failed writes exactly like the snapshot sweeps in the root package.
//
// Failure vocabulary (mirroring the snapshot reader's ErrCorrupt /
// ErrVersion split):
//
//   - a torn tail — frames cut short by a crash mid-append — is truncated
//     to the last intact frame and replay succeeds with the durable
//     prefix;
//   - a frame whose bytes are all present but whose checksum fails (bit
//     flip, corrupt page) is reported as ErrCorrupt: the data was
//     acknowledged durable and is now wrong, which recovery must not
//     paper over silently;
//   - an unknown WAL version is ErrVersion; a WAL whose header disagrees
//     with the base snapshot it claims to extend is ErrMismatch.
package ingest

import "errors"

// Typed errors. The facade wraps these into its own vocabulary where
// appropriate; tests classify recovery outcomes with errors.Is.
var (
	// ErrCorrupt marks a WAL or manifest whose durable bytes fail
	// verification: a full frame with a bad checksum, an implausible
	// length, a manifest that does not parse.
	ErrCorrupt = errors.New("ingest: corrupt")
	// ErrVersion marks an unknown WAL or manifest format version.
	ErrVersion = errors.New("ingest: unsupported version")
	// ErrMismatch marks a WAL that does not belong to the base snapshot
	// it is being replayed against (wrong epoch or base row count).
	ErrMismatch = errors.New("ingest: WAL does not match base snapshot")
	// ErrClosed is returned by operations on a closed WAL or merger.
	ErrClosed = errors.New("ingest: closed")
	// ErrBackpressure is returned by appends once the unmerged delta has
	// hit its configured bound and merging cannot keep up: the caller
	// must retry later (or force a merge) instead of growing the delta
	// without limit.
	ErrBackpressure = errors.New("ingest: delta bound reached, backpressure")
	// ErrTooLarge is returned by WAL.Append for a row payload that
	// exceeds the frame limit; the row can never be made durable.
	ErrTooLarge = errors.New("ingest: row payload exceeds frame limit")
)
