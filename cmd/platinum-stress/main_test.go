package main

import (
	"bytes"
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
