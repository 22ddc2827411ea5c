//go:build race

package mcmpart

// Under the race detector a BERT plan runs ten times slower, and the plan
// golden's 32 of them would take four minutes; TestPlanGolden keeps one seed.
const raceEnabled = true
