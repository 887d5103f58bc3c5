// Package mesh models a W x L x H grid of processors — planar 2D mesh
// (H == 1), wrap-around torus, or 3D mesh — with coordinates, cuboid
// sub-meshes, an occupancy map with allocation bookkeeping, and the
// free-sub-mesh searches (first-fit, best-fit, constrained
// largest-free) that the allocation strategies are built on.
//
// # Occupancy index
//
// Occupancy lives in one authoritative store, a word-parallel bitboard:
// one uint64 bit per processor, set when it is free, W/64 words per
// (row, plane). Every mutation flips span masks in place, and every
// query reads the words: a processor's state is one bit test, a
// rectangle's busy count is a masked popcount per row, a free run is a
// trailing-zero scan, and the candidate bases of a w x l window row
// are a fit mask — the window rows' words ANDed and narrowed by width
// with shift-AND steps. On top of the words sit lazily repaired
// per-row max-run aggregates (rowMax), which let the searches discard
// whole rows in O(1), stacked into a per-plane aggregate (planeMax)
// that discards whole planes.
//
// The index is shared by every strategy; no operation rebuilds a full
// table per allocation decision. See the Mesh type for the exact
// invariants and docs/occupancy-index.md at the repository root for a
// narrative walkthrough (§9 the bitboard, §13 how it replaced the
// earlier scalar run tables and summed-area table).
//
// BestFit scores a base row's candidates with one row kernel for every
// topology (bestfit.go, docs/occupancy-index.md §14): the side faces
// come from per-column busy counts that slide with the base row, the
// other faces from per-row prefix sums, and the scan stops at the
// first candidate whose score reaches its geometric ceiling.
//
// The constrained-largest search (LargestFree, the heart of GABL's
// carving) runs as a best-first shape-probe phase backed by an O(W·L)
// maximal-rectangle-in-histogram sweep — over the doubled seam band on
// a torus — with release-epoch memoization of alloc-monotone facts;
// the pre-histogram per-anchor scan is kept in the tests as the
// reference its differential tests compare against (histogram.go,
// docs/occupancy-index.md §6). Its volumetric counterpart
// (LargestFree3D) runs the same sweep per AND-projected plane under a
// z-extent outer loop, with the naive volumetric scan kept in the
// tests as largestFreeScan3D (volume.go, docs/occupancy-index.md §7).
//
// # Topologies
//
// New builds a planar mesh, New3D a 3D mesh, and NewTorus a (depth-1)
// torus whose x and y extents wrap around. The index tables are planar
// on both 2D topologies — wrap-around semantics are resolved at query
// time: a free run reaching the x = W-1 edge continues at x = 0
// (capped at W), and a query rectangle crossing a seam is split into
// two or four planar rectangles, each answered by the planar machinery
// (see torus.go). The searches widen their candidate space
// accordingly, so on a torus FirstFit, BestFit and LargestFree may
// return sub-meshes whose end coordinates exceed the planar bounds
// (X2 >= W or Y2 >= L, extents taken modulo the ring sizes); SplitWrap
// resolves such a placement into the planar pieces that mutations
// understand. Mutations are always planar, which keeps the maintenance
// invariants identical on both topologies.
//
// On a 3D mesh the searches gain the depth axis (FirstFit3D, BestFit3D,
// LargestFree3D, FitsAt3D) scanning candidate bases in (z, y, x) order
// with plane-aggregate pruning; every 3D entry point delegates to the
// planar machinery on depth-1 meshes, so 2D behaviour — placements,
// tie-breaking, memoization — is bit-identical to the planar-only
// engine by construction (volume.go).
//
// # Coordinates
//
// Coordinates follow the paper: processor (x, y) with 0 <= x < W,
// 0 <= y < L; a sub-mesh S(w, l) is written (x, y, x', y') where (x, y)
// is its base and (x', y') its end (paper Definition 1). The depth
// axis extends both: processor (x, y, z) with 0 <= z < H, and cuboid
// sub-meshes S(w, l, h) with base and end planes; 2D constructors
// produce depth-1 sub-meshes in plane 0.
package mesh
