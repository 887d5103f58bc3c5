package alloc

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/stats"
)

// TestWarmCycleAllocatesNothing holds GABL, Paging(0), MBS, FirstFit
// and BestFit to zero heap allocations per warm Allocate/Release
// cycle, on the paper's 16x22 mesh, the 16x22 torus and an 8x8x4 3D
// mesh, each where the strategy supports that geometry. One cycle
// replays a fixed request stream from an empty mesh, releasing the
// oldest allocation when a request fails or too many are live, and
// ends empty, so every cycle repeats the same searches and commits.
// The first cycles grow the search scratch and the recycled piece
// lists: a list returns to the pool sized for its last allocation and
// is handed to another request next time, so capacities settle after
// a few cycles, and from then on nothing may allocate.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	geometries := []struct {
		name  string
		build func() *mesh.Mesh
		depth int
	}{
		{"mesh16x22", func() *mesh.Mesh { return mesh.New(16, 22) }, 1},
		{"torus16x22", func() *mesh.Mesh { return mesh.NewTorus(16, 22) }, 1},
		{"mesh8x8x4", func() *mesh.Mesh { return mesh.New3D(8, 8, 4) }, 4},
	}
	for _, g := range geometries {
		for _, name := range []string{"GABL", "Paging(0)", "MBS", "FirstFit", "BestFit"} {
			if g.depth > 1 && !Supports3D(name) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", g.name, name), func(t *testing.T) {
				m := g.build()
				al, err := ByName(name, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := stats.NewStream(3)
				reqs := make([]Request, 200)
				for i := range reqs {
					reqs[i] = Request{W: rng.UniformInt(1, m.W()/2), L: rng.UniformInt(1, m.L()/2),
						H: rng.UniformInt(1, g.depth)}
				}
				live := make([]Allocation, 0, len(reqs))
				releaseOldest := func() {
					al.Release(live[0])
					live = live[:copy(live, live[1:])]
				}
				var placed, wrapped int
				cycle := func() {
					for _, req := range reqs {
						a, ok := al.Allocate(req)
						for !ok && len(live) > 0 {
							releaseOldest()
							a, ok = al.Allocate(req)
						}
						if !ok {
							t.Fatalf("%v does not fit the empty mesh", req)
						}
						placed++
						if len(a.Pieces) > a.PieceCount() {
							wrapped++
						}
						live = append(live, a)
						if len(live) > 6 {
							releaseOldest()
						}
					}
					for _, a := range live {
						al.Release(a)
					}
					live = live[:0]
					if m.FreeCount() != m.Size() {
						t.Fatalf("cycle left %d processors busy", m.Size()-m.FreeCount())
					}
				}
				for i := 0; i < 5; i++ {
					cycle()
				}
				if n := testing.AllocsPerRun(5, cycle); n != 0 {
					t.Errorf("warm cycle of %d requests: %v allocations, want 0", len(reqs), n)
				}
				// Pages and buddy blocks are aligned tiles that never
				// cross a seam; the searching strategies must.
				seams := name != "Paging(0)" && name != "MBS"
				if m.Torus() && seams && wrapped == 0 {
					t.Errorf("no placement of %d crossed a torus seam: the split path went untested", placed)
				}
			})
		}
	}
}
