package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"testing"

	"sigrec/internal/daemon"
)

// TestFlagSurface pins every flag's name, type, default and usage text.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("sigrec-scan", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := daemon.Surface(fs); got != string(want) {
		t.Errorf("flag surface differs from testdata/flags.golden; got:\n%s", got)
	}
}
