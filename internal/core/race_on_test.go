//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build, which slows every simulated instruction severalfold.
const raceEnabled = true
