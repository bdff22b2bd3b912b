//go:build !linux

package serve

import "time"

// sleepFine sleeps for d as finely as the platform's runtime timers
// allow; see pace_linux.go.
func sleepFine(d time.Duration) { time.Sleep(d) }
