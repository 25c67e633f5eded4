//go:build race

package serve

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops a random quarter of what it is given.
const raceEnabled = true
