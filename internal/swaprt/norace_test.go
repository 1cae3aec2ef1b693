//go:build !race

package swaprt

const raceEnabled = false
