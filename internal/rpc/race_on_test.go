//go:build race

package rpc

// raceEnabled reports that the race detector instruments this build.
// sync.Pool drops a share of its items on purpose under the detector,
// so allocation budgets are not checked there.
const raceEnabled = true
