//go:build !race && benchgate

package pipeline

const raceEnabled = false
