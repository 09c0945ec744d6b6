//go:build race

package pario_test

// raceEnabled lets allocation assertions stand down under -race, whose
// runtime allocates on its own account.
const raceEnabled = true
