//go:build race

package serve_test

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so allocation budgets do not hold under it.
const raceEnabled = true
