package frame

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data atomically and durably: the bytes
// land in a uniquely named temp file in the same directory, are synced,
// and replace path with one rename. A kill at any instant leaves either
// the previous file or the new one, never a torn one, and concurrent
// writers to one path each land a whole file (the last rename wins).
func WriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
