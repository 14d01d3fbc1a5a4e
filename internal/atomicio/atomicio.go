// Package atomicio writes files all-or-nothing: content lands in a
// temporary file in the destination's directory, is fsynced, and is
// renamed over the destination in one step. A writer killed at any
// point — including kill -9 mid-write — leaves either the old file
// or the new one, never a torn hybrid, which is the property the
// checkpoint journal and every result artifact (graphs, benchmark
// JSON) rely on: a reader must never half-parse a half-written file.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes the file at path atomically: write produces the
// content into a temp file in path's directory, which is then given
// mode 0644, synced and renamed onto path. On any error the temp file
// is removed and the destination is untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	// os.CreateTemp makes the file 0600; give it the mode os.Create
	// gives under the usual umask 022, so graphs and journals stay
	// readable by other users.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	// Sync before rename: the rename must never become visible ahead
	// of the bytes it names (a crash right after an unsynced rename
	// can resurface as an empty or partial "new" file).
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}
