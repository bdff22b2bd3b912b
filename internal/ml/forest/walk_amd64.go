package forest

// sumLeaves is Flat.sumLeaves in assembly, in walk_amd64.s: it walks
// the trees of each group of lanes together for the group's depth and
// adds the leaf probabilities of the first trees of them, in tree
// order, to a sum from +0. roots and depths are Flat.roots and
// Flat.groupDepth. Every node the walks reach must have its feature
// inside x, which newFlat guarantees for an x of Width values.
//
//go:noescape
func sumLeaves(thr *float64, link *uint64, prob *float64, x *float64, roots *uint32, depths *int32, trees int) float64
