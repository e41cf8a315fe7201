//go:build !race

package serve_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
