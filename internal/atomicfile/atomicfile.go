// Package atomicfile publishes files durably: a reader, or a crash, at any
// instant sees either the previous complete file or the new one, never a
// torn write. Model files, training checkpoints, the row-shard store and the
// CLIs' output files all write through it.
package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/spatialmf/smfl/internal/faultinject"
)

// Write streams write into a temp file in path's directory, fsyncs it,
// renames it over path, and fsyncs the directory so the rename itself is
// durable. A symlink at path is followed: its target is replaced and the
// link stays. A new file gets perm, less the umask; a replaced file keeps
// its permission bits. writePoint fires, with fault as its payload, after
// the payload is written but before fsync — an injected I/O error, after
// which the temp file is removed. renamePoint fires between the durable
// temp file and the rename — a simulated crash, which leaves the temp file
// next to the untouched previous file, exactly as a real power cut would.
// Either way any previous file at path survives.
//
// A path that holds something other than a regular file, such as a device
// like /dev/null, a FIFO or a dangling symlink, cannot be replaced by a
// rename. Write opens it and streams into it instead, as os.Create would,
// and fires no fault point.
func Write(path string, perm os.FileMode, write func(io.Writer) error, writePoint, renamePoint faultinject.Point, fault any) error {
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	switch fi, err := os.Lstat(path); {
	case err == nil && fi.Mode().IsRegular():
		perm = fi.Mode().Perm()
	case err == nil || !errors.Is(err, fs.ErrNotExist):
		return stream(path, perm, write)
	}
	f, err := createTemp(path, perm)
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
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() // best effort: rename durability
		d.Close()
	}
	return nil
}

// tmpSeq numbers this process's temp files.
var tmpSeq atomic.Uint64

// createTemp creates a new file named after path in its directory.
// os.CreateTemp cannot serve: it always creates mode 0600.
func createTemp(path string, perm os.FileMode) (*os.File, error) {
	for try := 0; ; try++ {
		name := fmt.Sprintf("%s.tmp%d-%d", path, os.Getpid(), tmpSeq.Add(1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if !errors.Is(err, fs.ErrExist) || try == 100 {
			return f, err
		}
	}
}

// stream writes into whatever path names, truncating it first.
func stream(path string, perm os.FileMode, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
