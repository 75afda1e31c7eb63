package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestBadFlagsExitTwo checks every flag set that cannot describe a run
// or does not boot a machine, and a stray argument: exit 2, one
// "platinum-stress:" line on stderr, and no reproducer.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-1"},
		{"-spaces", "0"},
		{"-pages", "0"},
		{"-ops", "-1"},
		{"-frames", "0"},
		{"-procs", "5000"},
		{"-bug", "nope"},
		{"-ops", "200", "bogus"},
		{"-ops", "200", "-duration", "-1s"},
	} {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "platinum-stress: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one platinum-stress: line", args, code, errb.String())
		}
		if strings.Contains(out.String()+errb.String(), "reproducer") {
			t.Errorf("%v: printed a reproducer for a run that never started:\n%s%s", args, out.String(), errb.String())
		}
	}
}

// TestDesyncReproducerDocumented runs the -bug desync self-test and
// fails unless every reproducer listing in EXPERIMENTS.md is its
// stderr verbatim, so the documented failure cannot go stale.
func TestDesyncReproducerDocumented(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-seed", "1", "-ops", "2000", "-bug", "desync"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(doc), "```")
	listings := 0
	for i := 1; i < len(blocks); i += 2 { // odd pieces are inside fences
		if body, ok := strings.CutPrefix(blocks[i], "\n"); ok && strings.Contains("\n"+body, "\nreproducer: seed=") {
			listings++
			if body != errb.String() {
				t.Errorf("EXPERIMENTS.md listing differs from the stderr of platinum-stress -seed 1 -ops 2000 -bug desync:\n%s\nwant:\n%s", body, errb.String())
			}
		}
	}
	if listings == 0 {
		t.Errorf("EXPERIMENTS.md has no reproducer listing; want the stderr of -bug desync:\n%s", errb.String())
	}
}
