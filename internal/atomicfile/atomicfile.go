// Package atomicfile replaces files whole. A reader of the path sees the
// previous contents or the new ones, never a torn mix, even while several
// goroutines or processes write the same path at once.
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
)

// tempInfix joins a target's base name to the random digits os.CreateTemp
// appends: the temp file of a Write to "<name>" is "<name>.tmp<digits>".
const tempInfix = ".tmp"

// Write lands data at path with mode 0644 through a temp file in the same
// directory and a rename. The temp name is unique to the call, so
// concurrent writers never share a temp file and the last rename wins
// whole. On any error the temp file is removed. Nothing is synced: the
// file survives the writer's crash, not the machine's.
func Write(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempInfix+"*")
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

// RemoveTemps deletes the temp files that Writes into dir left behind when
// their process was killed between creating and renaming them. Call it
// only while nothing writes into dir: it would also remove a live write's
// temp file before its rename.
func RemoveTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !isTemp(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// isTemp reports whether name is a Write temp file's name.
func isTemp(name string) bool {
	base, digits, ok := strings.Cut(name, tempInfix)
	return ok && base != "" && digits != "" && strings.Trim(digits, "0123456789") == ""
}
