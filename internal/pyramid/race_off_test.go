//go:build !race

package pyramid

const raceEnabled = false
