//go:build !race

package cycle

const raceEnabled = false
