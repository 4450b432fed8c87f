//go:build !race

package binary

// raceDetectorOn reports whether this test binary was built with -race.
// The zero-allocation budget tests consult it: the race runtime adds its
// own allocations (and drops sync.Pool items), so the budgets only hold
// without it.
const raceDetectorOn = false
