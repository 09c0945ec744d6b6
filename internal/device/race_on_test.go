//go:build race

package device

// raceEnabled lets allocation assertions stand down under -race, whose
// runtime allocates on its own account.
const raceEnabled = true
