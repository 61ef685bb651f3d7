//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so voids any allocation count.
const raceEnabled = true
