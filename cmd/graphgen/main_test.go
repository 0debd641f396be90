package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestEmitWritesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.edges")
	err := emit(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "0 a 1\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "0 a 1\n" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// A truncated output must not look like success: every way the file can
// fail to be complete is an error of emit.
func TestEmitReportsCreateWriteAndCloseErrors(t *testing.T) {
	writeLine := func(w io.Writer) error {
		_, err := io.WriteString(w, "0 a 1\n")
		return err
	}
	if err := emit(t.TempDir(), writeLine); err == nil {
		t.Error("creating a file over a directory reported no error")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := emit("/dev/full", writeLine); err == nil {
			t.Error("a write to a full device reported no error")
		}
	}
	// The write succeeds and the close fails (here: the file is already
	// closed), as on a file system that reports a full disk at close.
	err := emit(filepath.Join(t.TempDir(), "out.edges"), func(w io.Writer) error {
		if err := writeLine(w); err != nil {
			return err
		}
		return w.(*os.File).Close()
	})
	if err == nil {
		t.Error("a failed close reported no error")
	}
}
