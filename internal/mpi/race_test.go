//go:build race

package mpi

// raceEnabled: the race runtime allocates and slows on its own account,
// so allocation and cost gates do not hold under -race.
const raceEnabled = true
