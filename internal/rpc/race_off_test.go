//go:build !race

package rpc

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = false
