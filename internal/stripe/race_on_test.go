//go:build race

package stripe

// raceEnabled lets allocation assertions stand down under -race, whose
// runtime allocates on its own account.
const raceEnabled = true
