package byteslice

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Durable file snapshots. SaveFile follows the classic crash-atomic
// protocol — write to a temporary file in the target directory, fsync the
// file, rename over the target, fsync the directory — so a crash at any
// point leaves either the previous snapshot or the new one, never a
// half-written hybrid. LoadFile reads a snapshot back; combined with the
// checksummed v3 stream format, a snapshot that survives rename but was
// torn by hardware is detected at load, not silently queried.

// saveWriterHook lets the fault-injection tests interpose on the byte
// stream between WriteTo and the temporary file, simulating ENOSPC, short
// writes and crashes at exact offsets. It is nil outside tests.
var saveWriterHook func(io.Writer) io.Writer

// SaveFile atomically writes the table's snapshot to path: the bytes land
// in a temporary file in the same directory, are fsynced, and replace path
// with a single rename. On any error the target file is left untouched and
// the temporary file is removed.
func (t *Table) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bslc-*.tmp")
	if err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()        //nolint:errcheck // already failing
			os.Remove(tmpName) //nolint:errcheck // best-effort cleanup
		}
	}()

	w := io.Writer(tmp)
	if saveWriterHook != nil {
		w = saveWriterHook(tmp)
	}
	if _, err = t.WriteTo(w); err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	// The data must be on disk before the rename publishes it: a rename
	// that survives a crash while the content didn't would leave a torn
	// (though detectable, thanks to the checksums) snapshot.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("byteslice: save %s: %w", path, err)
	}
	// Persist the rename itself; without the directory fsync the new entry
	// may not survive a power cut. Some platforms refuse to fsync
	// directories — degrade gracefully there.
	if d, derr := os.Open(dir); derr == nil {
		if serr := d.Sync(); serr == nil || isSyncUnsupported(serr) {
			err = d.Close()
		} else {
			d.Close() //nolint:errcheck // sync error takes precedence
			err = serr
		}
		if err != nil {
			return fmt.Errorf("byteslice: save %s: sync dir: %w", path, err)
		}
	}
	return nil
}

// isSyncUnsupported reports fsync errors that mean "not supported here"
// rather than "your data is gone" (directories on some filesystems).
func isSyncUnsupported(err error) bool {
	for _, target := range []error{os.ErrInvalid} {
		if err == target {
			return true
		}
	}
	pe, ok := err.(*os.PathError)
	return ok && (pe.Err.Error() == "invalid argument" || pe.Err.Error() == "operation not supported")
}

// LoadFile reads a snapshot written by SaveFile (or any WriteTo stream on
// disk), rebuilding every column like ReadTable. Corruption and version
// errors wrap ErrCorrupt / ErrVersion.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("byteslice: load %s: %w", path, err)
	}
	defer f.Close() //nolint:errcheck // read-only
	t, err := ReadTable(f)
	if err != nil {
		return nil, fmt.Errorf("byteslice: load %s: %w", path, err)
	}
	return t, nil
}
