//go:build race

package streamcover

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so allocation pins cannot hold.
const raceEnabled = true
