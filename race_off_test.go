//go:build !race

package mcmpart

const raceEnabled = false
