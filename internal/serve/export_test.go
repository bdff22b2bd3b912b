package serve

import "time"

// Seams for follow_test.go, which lives in package serve_test because it
// drives this server with a cluster.Follower (cluster imports serve).

// FixModelPath is the model TestMain trained.
func FixModelPath() string { return fixModelPath }

// SetParkTimer replaces the timer a parked catch-up request arms.
func (s *Server) SetParkTimer(f func(time.Duration) (<-chan time.Time, func())) { s.parkTimer = f }
