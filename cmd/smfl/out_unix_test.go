//go:build unix

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestOutStreamsIntoFIFO: an -out that is a FIFO is written to in place, not
// replaced by a regular file.
func TestOutStreamsIntoFIFO(t *testing.T) {
	in := writeTempCSV(t, true)
	args := []string{"impute", "-in", in, "-k", "3", "-maxiter", "20"}
	want := runOK(t, args...)
	fifo := filepath.Join(t.TempDir(), "out.csv")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := os.ReadFile(fifo)
		got <- b
	}()
	runOK(t, append(args, "-out", fifo)...)
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("-out replaced the FIFO (%v, %v)", fi.Mode(), err)
	}
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("the FIFO's reader got %d bytes, not the %d of the table", len(b), len(want))
	}
}

// TestOutFileMode: a new -out file gets 0666 less the umask, as os.Create
// gives it, and a replaced one keeps its mode.
func TestOutFileMode(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o022))
	in := writeTempCSV(t, true)
	out := filepath.Join(t.TempDir(), "out.csv")
	args := []string{"impute", "-in", in, "-k", "3", "-maxiter", "20", "-out", out}
	for _, want := range []os.FileMode{0o644, 0o640} {
		if want != 0o644 {
			if err := os.Chmod(out, want); err != nil {
				t.Fatal(err)
			}
		}
		runOK(t, args...)
		fi, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != want {
			t.Fatalf("-out file has mode %v, want %v", got, want)
		}
	}
}
