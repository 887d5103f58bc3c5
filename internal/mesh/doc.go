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
// (row, plane). Every cuboid operation — the all-free check before an
// allocation, the all-busy check before a release, the flip, a
// rectangle's free count — is one masked word operation per touched
// word of each row, under span masks built once per box. A free run is
// a trailing-zero scan, and the candidate bases of a w x l window row
// are a fit mask — the window rows' words ANDed and narrowed by width
// with shift-AND steps; a 3D window reads the rows of its h planes'
// AND-projection, so it folds l rows, not l·h. FirstFit and BestFit
// run one window walk on every fabric (walk.go): suffix ANDs and a
// running AND give each window's AND in O(1) row operations per base
// row, and a partial AND without a free run of the width jumps the
// walk past every window containing it. Nothing else is maintained, so
// a mutation is a bare span flip. Failed processors are marked in bitboards of the
// same layout, so releasing over them is word operations too.
//
// The index is shared by every strategy; no operation rebuilds a full
// table per allocation decision. See the Mesh type for the exact
// invariants and docs/occupancy-index.md at the repository root for a
// narrative walkthrough (§9 the bitboard, §13 how it replaced the
// earlier scalar run tables and summed-area table).
//
// BestFit scores a base row's candidates with one row kernel for every
// topology (bestfit.go, docs/occupancy-index.md §14). A later candidate
// must score strictly more to win, so the kernel skips every word of
// the fit mask whose bound — sides only at the run ends of the mask,
// faces no busier than the rows they span — is at most the best, drops
// the bases that must score 0 on depth-1 fabrics, and scores the rest
// off the words; the scan stops at the first candidate whose score
// reaches its geometric ceiling.
//
// The constrained-largest search (LargestFree3D, and LargestFree, its
// depth-1 call — the heart of GABL's carving) is one engine for every
// fabric (histogram.go, docs/occupancy-index.md §6). One
// maximal-rectangle-in-histogram sweep reads the slabs the window walk
// reads — every (base plane, depth) AND-projection, deepened one plane
// at a time, each row rotated into the doubled seam band on a torus —
// keeps column heights as segments of equal height, steps its stack
// once per segment, and advances a run of identical slab rows as one
// band in one pass, filling one MW(depth, length) table; one fold
// picks the best capped (volume, spread) pair off the table and one
// first-fit locate places it. Every call sweeps: nothing is cached
// between calls. The per-anchor scans it replaced are kept in the
// tests as largestFreeScan and largestFreeScan3D, the references its
// differential tests compare against.
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
// LargestFree3D) scanning candidate bases in (z, y, x) order. Each runs
// one loop for every fabric, and the planar and torus FirstFit,
// BestFit and LargestFree are its depth-1 calls, so 2D placements and
// tie-breaking are those of the same engine (volume.go).
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
