package frame

import (
	"fmt"
	"os"
	"path/filepath"

	"kagura/internal/faultinject"
)

// WriteFileAtomic writes data to path so readers never observe a partial
// file: the bytes land in a temp file in the same directory, are fsynced,
// and the temp file is renamed over path — rename within a directory is
// atomic on POSIX filesystems. A crash or injected fault at any step leaves
// either the old file or the complete new one, never a truncated blob; the
// temp file is removed on every failure path.
//
// os.WriteFile offers none of this: it truncates the destination first, so
// an interruption mid-write destroys the previous file too.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := faultinject.CkptWrite.FireErr(); err != nil {
		return fmt.Errorf("frame: write %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return fail(err)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := faultinject.CkptWrite.FireErr(); err != nil {
		return fail(fmt.Errorf("frame: write %s: %w", path, err))
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	//kagura:allow atomicwrite this IS the atomic-write commit point: the temp file was fsynced above, so the rename publishes complete, durable bytes
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Directory fsync is best-effort: not
	// every platform or filesystem supports it, and the file contents are
	// already synced.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Quarantine moves the damaged file at path into dir as "NNNNNN-<name>",
// taking the first number not yet used there, so evidence set aside by an
// earlier run is never overwritten. If dir cannot be created or the move
// fails, the file is deleted instead: recovery must proceed regardless.
func Quarantine(dir, path string) {
	if err := os.MkdirAll(dir, 0o755); err == nil {
		for i := 1; i <= 999999; i++ {
			dst := filepath.Join(dir, fmt.Sprintf("%06d-%s", i, filepath.Base(path)))
			if _, err := os.Lstat(dst); err == nil {
				continue
			}
			//kagura:allow atomicwrite the source file is already complete (and already corrupt); the move relocates evidence, it does not commit new bytes
			if os.Rename(path, dst) == nil {
				return
			}
			break
		}
	}
	os.Remove(path)
}
