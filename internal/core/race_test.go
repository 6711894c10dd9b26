//go:build race

package core

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of Puts, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
