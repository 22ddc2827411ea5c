//go:build race

package hwsim

// Under the race detector sync.Pool drops a share of what is put back, so
// what Assess allocates is the detector's as much as the program's.
const raceEnabled = true
