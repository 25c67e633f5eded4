package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"byteslice/internal/obs"
)

// WAL framing reuses the snapshot-v2 conventions: every frame is
//
//	tag u8 | len u32 | payload | crc32c(payload) u32
//
// with all integers little-endian and the CRC32-C polynomial shared with
// the snapshot format. The file opens with a magic + version preamble and
// a header frame binding the WAL to one epoch of one base snapshot:
//
//	magic "BSWL" | version u16 = 1
//	frame 'H': epoch u64 | baseRows u64
//	frame 'R': one appended row (opaque payload owned by the facade)
//
// A reader never trusts a declared length for allocation beyond
// maxFramePayload, so a corrupt length cannot trigger an outsized
// allocation; and because every acknowledged append is a complete frame,
// recovery can always classify the tail: complete frames replay, a
// partial frame at EOF is a torn write and truncates, and a complete
// frame with a bad checksum is corruption that must surface.

const (
	walMagic   = "BSWL"
	walVersion = 1

	frameHeader = 'H'
	frameRow    = 'R'

	// maxFramePayload bounds one frame: a row is a few bytes per column,
	// so 16 MiB is far beyond any legitimate frame while cheap to reject
	// when a corrupt length claims more.
	maxFramePayload = 1 << 24
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WriterHook interposes on the byte stream between the WAL and its file,
// letting the fault-injection tests fail appends at exact byte offsets.
// It is nil outside tests (the facade re-exports a setter).
var WriterHook func(io.Writer) io.Writer

// WAL is an append-only, CRC-framed log of rows appended since the
// current epoch's base snapshot. A WAL has a single writer (the ingest
// pipeline's append path); it is not safe for concurrent use.
type WAL struct {
	f        *os.File
	w        io.Writer
	path     string
	epoch    uint64
	baseRows uint64
	rows     int64
	size     int64
	syncEach bool
	dirty    bool
	failed   bool
	closed   bool
}

// Recovery reports what Open found and replayed.
type Recovery struct {
	// Rows holds the payload of every intact row frame, in append order.
	Rows [][]byte
	// Truncated is the number of torn-tail bytes cut from the file (0
	// when the WAL ended on a frame boundary).
	Truncated int64
}

// Create initialises a new WAL at path for the given epoch over a base
// snapshot of baseRows rows. The file must not already exist; the header
// is durable (fsynced, directory entry included) before Create returns.
func Create(path string, epoch, baseRows uint64, syncEach bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: create WAL %s: %w", path, err)
	}
	w := &WAL{f: f, w: io.Writer(f), path: path, epoch: epoch, baseRows: baseRows, syncEach: syncEach}
	if WriterHook != nil {
		w.w = WriterHook(f)
	}
	var pre [6]byte
	copy(pre[:], walMagic)
	binary.LittleEndian.PutUint16(pre[4:], walVersion)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], epoch)
	binary.LittleEndian.PutUint64(hdr[8:], baseRows)
	err = func() error {
		if _, err := w.w.Write(pre[:]); err != nil {
			return err
		}
		w.size = int64(len(pre))
		return w.writeFrame(frameHeader, hdr[:])
	}()
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()       //nolint:errcheck // already failing
		os.Remove(path) //nolint:errcheck // best-effort cleanup
		return nil, fmt.Errorf("ingest: create WAL %s: %w", path, err)
	}
	syncDir(filepath.Dir(path))
	return w, nil
}

// Open reads the WAL at path, verifying every frame, truncating a torn
// tail to the last intact frame, and returning the log positioned for
// appending together with the recovered rows. A complete frame with a
// bad checksum (or any structurally impossible byte) aborts with
// ErrCorrupt: those bytes were acknowledged durable and are now wrong,
// which replay must not skip silently.
func Open(path string, syncEach bool) (*WAL, *Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL %s: %w", path, err)
	}
	epoch, baseRows, rows, good, err := parseWAL(data)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL %s: %w", path, err)
	}
	rec := &Recovery{Rows: rows, Truncated: int64(len(data)) - good}
	if rec.Truncated > 0 {
		if err := os.Truncate(path, good); err != nil {
			return nil, nil, fmt.Errorf("ingest: truncate torn WAL tail %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: reopen WAL %s: %w", path, err)
	}
	w := &WAL{f: f, w: io.Writer(f), path: path, epoch: epoch, baseRows: baseRows,
		rows: int64(len(rows)), size: good, syncEach: syncEach}
	if WriterHook != nil {
		w.w = WriterHook(f)
	}
	return w, rec, nil
}

// parseWAL walks the full byte image of a WAL: it returns the header
// fields, the intact row payloads and the byte offset of the last intact
// frame. A short preamble or a frame cut by EOF is a torn tail (not an
// error); everything else structurally wrong is ErrCorrupt.
func parseWAL(data []byte) (epoch, baseRows uint64, rows [][]byte, good int64, err error) {
	if len(data) < 6 {
		return 0, 0, nil, 0, fmt.Errorf("%w: WAL preamble truncated (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != walMagic {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != walVersion {
		return 0, 0, nil, 0, fmt.Errorf("%w: WAL version %d", ErrVersion, v)
	}
	off := int64(6)
	payload, n, ferr := parseFrame(data[off:], frameHeader)
	if ferr != nil {
		// The header frame was written and synced by Create before any
		// append was acknowledged; a missing or damaged header means the
		// WAL itself is corrupt, torn tail or not.
		return 0, 0, nil, 0, fmt.Errorf("WAL header at offset %d: %w", off, ferr.or(ErrCorrupt))
	}
	if len(payload) != 16 {
		return 0, 0, nil, 0, fmt.Errorf("%w: WAL header payload %d bytes, want 16", ErrCorrupt, len(payload))
	}
	epoch = binary.LittleEndian.Uint64(payload[0:])
	baseRows = binary.LittleEndian.Uint64(payload[8:])
	off += n
	good = off

	for int64(len(data)) > off {
		payload, n, ferr := parseFrame(data[off:], frameRow)
		if ferr != nil {
			if ferr.torn {
				// Torn tail: the crash cut an append mid-frame. The rows
				// before it are intact and durable; the partial frame was
				// never acknowledged.
				return epoch, baseRows, rows, good, nil
			}
			return 0, 0, nil, 0, fmt.Errorf("WAL frame at offset %d: %w", off, ferr.err)
		}
		rows = append(rows, payload)
		off += n
		good = off
	}
	return epoch, baseRows, rows, good, nil
}

// frameErr classifies a frame parse failure: torn (ran out of bytes) or
// structurally corrupt.
type frameErr struct {
	torn bool
	err  error
}

func (e *frameErr) or(sentinel error) error {
	if e.err != nil {
		return e.err
	}
	return sentinel
}

// parseFrame reads one frame of the wanted tag from the front of b,
// returning the payload and the total frame length.
func parseFrame(b []byte, tag byte) ([]byte, int64, *frameErr) {
	if len(b) < 5 {
		return nil, 0, &frameErr{torn: true}
	}
	if b[0] != tag {
		return nil, 0, &frameErr{err: fmt.Errorf("%w: frame tag %q, want %q", ErrCorrupt, b[0], tag)}
	}
	ln := binary.LittleEndian.Uint32(b[1:5])
	if ln > maxFramePayload {
		return nil, 0, &frameErr{err: fmt.Errorf("%w: frame length %d exceeds limit %d", ErrCorrupt, ln, maxFramePayload)}
	}
	total := int64(5) + int64(ln) + 4
	if int64(len(b)) < total {
		return nil, 0, &frameErr{torn: true}
	}
	payload := b[5 : 5+ln]
	want := binary.LittleEndian.Uint32(b[5+ln:])
	if crc32.Checksum(payload, walCRC) != want {
		return nil, 0, &frameErr{err: fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)}
	}
	return payload, total, nil
}

// writeFrame appends one frame to the file through the (possibly
// fault-wrapped) writer.
func (w *WAL) writeFrame(tag byte, payload []byte) error {
	var buf bytes.Buffer
	buf.Grow(9 + len(payload))
	buf.WriteByte(tag)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(payload)))
	buf.Write(b4[:])
	buf.Write(payload)
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(payload, walCRC))
	buf.Write(b4[:])
	n, err := w.w.Write(buf.Bytes())
	w.size += int64(n)
	if err != nil {
		return err
	}
	return nil
}

// Append makes one row durable: the payload is framed, written, and —
// under the sync-each policy — fsynced before Append returns. After a
// write error the WAL refuses further appends (the file position is no
// longer trustworthy); recovery via Open is the only way back.
func (w *WAL) Append(payload []byte) error {
	switch {
	case w.closed:
		return ErrClosed
	case w.failed:
		return fmt.Errorf("%w: WAL failed a previous write; reopen to recover", ErrClosed)
	case len(payload) > maxFramePayload:
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if err := w.writeFrame(frameRow, payload); err != nil {
		w.failed = true
		return fmt.Errorf("ingest: WAL append: %w", err)
	}
	w.dirty = true
	if w.syncEach {
		if err := w.Sync(); err != nil {
			w.failed = true
			return err
		}
	}
	w.rows++
	return nil
}

// Sync flushes appended frames to stable storage (no-op when clean).
func (w *WAL) Sync() error {
	if w.closed {
		return ErrClosed
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: WAL sync: %w", err)
	}
	obs.Default.Ingest.WALSyncs.Add(1)
	w.dirty = false
	return nil
}

// SetSyncEach sets the policy for the appends that follow: fsync every
// row frame, or leave syncing to Sync and Close.
func (w *WAL) SetSyncEach(on bool) { w.syncEach = on }

// Epoch returns the epoch this WAL extends.
func (w *WAL) Epoch() uint64 { return w.epoch }

// BaseRows returns the row count of the base snapshot this WAL extends.
func (w *WAL) BaseRows() uint64 { return w.baseRows }

// Rows returns the number of durable row frames (replayed + appended).
func (w *WAL) Rows() int64 { return w.rows }

// Size returns the WAL's byte size including framing overhead.
func (w *WAL) Size() int64 { return w.size }

// Path returns the WAL's file path.
func (w *WAL) Path() string { return w.path }

// Close syncs and closes the file. Further appends return ErrClosed.
func (w *WAL) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.dirty && !w.failed {
		if err = w.f.Sync(); err == nil {
			obs.Default.Ingest.WALSyncs.Add(1)
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ingest: close WAL %s: %w", w.path, err)
	}
	return nil
}

// Info describes a WAL file for inspection tooling without mutating it:
// Open truncates torn tails, Inspect only reports them.
type Info struct {
	Epoch     uint64
	BaseRows  uint64
	Rows      int
	GoodBytes int64
	FileBytes int64
	// Tail is "clean", "torn" (partial frame at EOF) or absent when Err
	// is set (structural corruption at GoodBytes).
	Tail string
	Err  error
}

// Inspect reads a WAL file and classifies its tail without truncating.
func Inspect(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	info := Info{FileBytes: int64(len(data)), Tail: "clean"}
	epoch, baseRows, rows, good, perr := parseWAL(data)
	info.Epoch, info.BaseRows, info.Rows, info.GoodBytes = epoch, baseRows, len(rows), good
	if perr != nil {
		info.Tail = ""
		info.Err = perr
		return info, nil
	}
	if good < info.FileBytes {
		info.Tail = "torn"
	}
	return info, nil
}

// syncDir fsyncs a directory entry change, degrading gracefully on
// filesystems that refuse to fsync directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck // best-effort, mirrors persist_file.go
	d.Close() //nolint:errcheck // read-only
}
