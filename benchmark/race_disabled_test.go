//go:build !race

package main

// raceEnabled: see the race variant of this file.
const raceEnabled = false
