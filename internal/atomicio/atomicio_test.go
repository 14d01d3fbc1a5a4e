package atomicio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A written file gets mode 0644, what os.Create gives under umask 022,
// not the 0600 of the temp file it started as.
func TestWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Fatalf("mode %v, want %v", got, os.FileMode(0o644))
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "payload" {
		t.Fatalf("read back %q, %v", data, err)
	}
}

// A failing write leaves an existing destination byte-identical and
// removes its temp file.
func TestWriteFileFailureKeepsDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	old := []byte("the previous contents")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a new file")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write error", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("destination now %q, %v; want it unchanged", data, err)
	}
	if left, err := filepath.Glob(filepath.Join(dir, "*.tmp*")); err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v, %v", left, err)
	}
}
