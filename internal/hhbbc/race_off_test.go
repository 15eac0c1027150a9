//go:build !race

package hhbbc_test

const raceEnabled = false
