//go:build race

package gathernoc

// raceEnabled says the tests run under the race detector. It makes
// sync.Pool drop a share of its Puts at random, so an allocation pin that
// counts on a pooled buffer coming back cannot hold there.
const raceEnabled = true
