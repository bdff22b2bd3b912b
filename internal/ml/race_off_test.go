//go:build !race

package ml_test

const raceEnabled = false
