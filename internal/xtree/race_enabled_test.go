//go:build race

package xtree

// raceEnabled mirrors the -race build flag. Race instrumentation, with
// the atomic coverage counters CI adds to it, slows tree construction
// about a hundredfold, so the largest digest cases run uninstrumented
// only.
const raceEnabled = true
