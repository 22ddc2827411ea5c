//go:build race

package rl_test

// Under the race detector a BERT-sized PPO iteration runs ten times slower,
// and what it allocates is the detector's as much as the program's.
const raceEnabled = true
