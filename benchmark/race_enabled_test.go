//go:build race

package main

// raceEnabled relaxes the serve_open test: the offered load is fixed, and
// under the race detector the cluster is several times slower than it, so
// the phase is saturated and its validity gates fail by construction. The
// run is still made, for the detector's sake.
const raceEnabled = true
