//go:build !race

package xtree

const raceEnabled = false
