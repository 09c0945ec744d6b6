//go:build !race

package buffer

const raceEnabled = false
