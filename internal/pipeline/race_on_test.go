//go:build race && benchgate

package pipeline

// raceEnabled reports whether the race detector is instrumenting this
// build; timing assertions are meaningless under its overhead.
const raceEnabled = true
