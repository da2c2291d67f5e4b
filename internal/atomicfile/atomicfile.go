// Package atomicfile publishes files durably: a reader, or a crash, at any
// instant sees either the previous complete file or the new one, never a
// torn write. Model files, training checkpoints and the row-shard store all
// write through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"

	"github.com/spatialmf/smfl/internal/faultinject"
)

// Write streams write into a temp file in path's directory, fsyncs it,
// renames it over path, and fsyncs the directory so the rename itself is
// durable. writePoint fires, with fault as its payload, after the payload
// is written but before fsync — an injected I/O error, after which the temp
// file is removed. renamePoint fires between the durable temp file and the
// rename — a simulated crash, which leaves the temp file next to the
// untouched previous file, exactly as a real power cut would. Either way
// any previous file at path survives.
func Write(path string, write func(io.Writer) error, writePoint, renamePoint faultinject.Point, fault any) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if faultinject.Enabled() {
		if err := faultinject.Fire(writePoint, fault); err != nil {
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if faultinject.Enabled() {
		if err := faultinject.Fire(renamePoint, fault); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best effort: rename durability
		d.Close()
	}
	return nil
}
