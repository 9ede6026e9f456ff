//go:build !race

package main

// raceEnabled gates the full-length training smoke: under the race
// detector its 240 vgg16sim steps outrun clitest's 30 s budget.
const raceEnabled = false
