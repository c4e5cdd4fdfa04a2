//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what it is given, so allocation figures are not the program's.
const raceEnabled = true
