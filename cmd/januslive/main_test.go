package main

import (
	"flag"
	"os"
	"testing"
)

// runWith runs the command in-process on a fresh flag set.
func runWith(args ...string) int {
	flag.CommandLine = flag.NewFlagSet("januslive", flag.ContinueOnError)
	os.Args = append([]string{"januslive"}, args...)
	return run()
}

// TestDrillPastLastMachineIsUsageError: a drill flag naming a machine
// the cluster does not have matches no endpoint label, so the run used
// to inject nothing and exit 0. It must be a usage error; the last
// real machine must still be accepted.
func TestDrillPastLastMachineIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-kill-machine", "2", "-kill-from", "1"},
		{"-partition-machine", "2", "-partition-from", "1"},
		{"-slow-machine", "9"},
		{"-train", "-join-machine", "2", "-join-at", "1"},
		{"-machines", "3", "-kill-machine", "1", "-slow-machine", "3"},
	} {
		if code := runWith(args...); code != 2 {
			t.Errorf("januslive %v: exit %d, want usage error 2", args, code)
		}
	}
	if code := runWith("-steps", "2", "-tokens", "16", "-slow-machine", "1", "-slow-delay", "1ms"); code != 0 {
		t.Errorf("a drill on the last real machine: exit %d, want 0", code)
	}
}
