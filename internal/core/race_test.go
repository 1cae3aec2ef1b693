//go:build race

package core

// raceEnabled: the race runtime allocates on its own account, so
// allocation pins do not hold under -race.
const raceEnabled = true
