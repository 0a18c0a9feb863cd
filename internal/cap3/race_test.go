//go:build race

package cap3

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of what it is given: the allocation ceilings do not hold there.
const raceEnabled = true
