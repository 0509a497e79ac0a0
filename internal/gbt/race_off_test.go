//go:build !race

package gbt

const raceEnabled = false
