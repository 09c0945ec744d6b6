//go:build !race

package pario_test

const raceEnabled = false
