// Package atomicfile replaces files whole. A reader of the path sees the
// previous contents or the new ones, never a torn mix, even while several
// goroutines or processes write the same path at once.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write lands data at path with mode 0644 through a temp file in the same
// directory and a rename. The temp name is unique to the call, so
// concurrent writers never share a temp file and the last rename wins
// whole. On any error the temp file is removed. Nothing is synced: the
// file survives the writer's crash, not the machine's.
func Write(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err
}
