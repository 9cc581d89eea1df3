//go:build race

package main

// raceEnabled reports a build with the race detector, where wall-clock
// ceilings on instrumented code measure the instrumentation.
const raceEnabled = true
