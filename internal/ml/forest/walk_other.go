//go:build !amd64

package forest

// sumLeaves has no assembly off amd64, where vec.AVX2 is false and
// Flat.Score always takes the Go walk.
func sumLeaves(thr *float64, link *uint64, prob *float64, x *float64, roots *uint32, depths *int32, trees int) float64 {
	panic("forest: no walk kernel on this architecture")
}
