//go:build race

package main

// Under the race detector sync.Pool drops a random share of its Puts, so
// allocation counts stop repeating to the half percent the generator test
// asserts.
const raceEnabled = true
