//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// what is put back, so allocation counts do not hold under it.
const raceEnabled = true
