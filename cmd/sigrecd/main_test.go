package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"testing"

	"sigrec/internal/daemon"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		queue   int
		maxBody int64
		wantErr bool
	}{
		{"defaults", 0, 64, 8 << 20, false},
		{"explicit workers", 8, 1, 1, false},
		{"negative workers", -1, 64, 8 << 20, true},
		{"zero queue", 4, 0, 8 << 20, true},
		{"negative queue", 4, -3, 8 << 20, true},
		{"zero maxbody", 4, 64, 0, true},
		{"negative maxbody", 4, 64, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.workers, tc.queue, tc.maxBody)
			if (err != nil) != tc.wantErr {
				t.Fatalf("validateFlags(%d, %d, %d) = %v, wantErr %v",
					tc.workers, tc.queue, tc.maxBody, err, tc.wantErr)
			}
		})
	}
}

// TestFlagSurface pins every flag's name, type, default and usage text.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("sigrecd", flag.ContinueOnError)
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
