//go:build race

package schedule

// raceEnabled reports that the race detector is on: allocation counts then
// vary by a dozen objects from run to run, so they are not the program's.
const raceEnabled = true
