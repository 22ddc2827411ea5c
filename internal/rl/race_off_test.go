//go:build !race

package rl_test

const raceEnabled = false
