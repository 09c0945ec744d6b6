//go:build !race

package stripe

const raceEnabled = false
