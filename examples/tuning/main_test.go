package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestStdoutGolden pins the walkthrough's output byte for byte: each
// step's elapsed time, cost shares and freeze state, and the text
// around them.
func TestStdoutGolden(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
