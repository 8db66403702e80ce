//go:build !race

package client_test

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random: exact allocation counts hold only without it.
const raceEnabled = false
