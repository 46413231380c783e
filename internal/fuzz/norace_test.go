//go:build !race

package fuzz

// raceEnabled reports a -race build, whose runtime allocates on its own
// and so voids allocation counts.
const raceEnabled = false
