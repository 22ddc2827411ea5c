//go:build !race

package hwsim

const raceEnabled = false
