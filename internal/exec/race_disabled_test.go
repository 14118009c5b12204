//go:build !race

package exec

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
