//go:build race

package sim

// raceEnabled lets allocation assertions stand down under -race, whose
// runtime allocates on its own account.
const raceEnabled = true
