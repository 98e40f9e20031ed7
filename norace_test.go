//go:build !race

package gathernoc

// raceEnabled says the tests run under the race detector (race_test.go).
const raceEnabled = false
