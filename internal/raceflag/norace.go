//go:build !race

// Package raceflag tells tests whether the race detector is on. Under
// -race sync.Pool drops entries at random, so zero-allocation assertions
// over pooled paths only hold without it.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false
