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
// to inject nothing and exit 0. It must be a usage error; a drill on
// the last real machine, and a kill window the trainer rides out on
// stale weights, must still exit 0.
func TestDrillPastLastMachineIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-kill-machine", "2", "-kill-from", "1"}, 2},
		{[]string{"-partition-machine", "2", "-partition-from", "1"}, 2},
		{[]string{"-slow-machine", "9"}, 2},
		{[]string{"-join-machine", "2", "-join-at", "1"}, 2},
		{[]string{"-machines", "3", "-kill-machine", "1", "-slow-machine", "3"}, 2},
		{[]string{"-steps", "2", "-tokens", "16", "-slow-machine", "1", "-slow-delay", "1ms"}, 0},
		{[]string{"-steps", "4", "-kill-machine", "1", "-kill-from", "2", "-kill-to", "3", "-tokens", "16"}, 0},
	} {
		if code := runWith(tc.args...); code != tc.want {
			t.Errorf("januslive %v: exit %d, want %d", tc.args, code, tc.want)
		}
	}
}
