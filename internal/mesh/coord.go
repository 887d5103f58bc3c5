package mesh

// This file defines the geometry vocabulary: coordinates and cuboid
// sub-meshes. Since PR 4 the vocabulary is three-dimensional; the 2D
// constructors (Sub, SubAt) remain and produce depth-1 sub-meshes in
// plane z = 0, so all 2D call sites read unchanged. The package
// documentation lives in doc.go.

import "fmt"

// Coord identifies one processor in the mesh. Z is the plane index; it
// is always 0 on a 2D (depth-1) mesh.
type Coord struct {
	X, Y, Z int
}

// String renders the coordinate as "(x,y)" in plane 0 and "(x,y,z)"
// otherwise, keeping 2D diagnostics in the paper's notation.
func (c Coord) String() string {
	if c.Z == 0 {
		return fmt.Sprintf("(%d,%d)", c.X, c.Y)
	}
	return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z)
}

// ManhattanDist returns the L1 distance between two processors, which is
// the number of links a dimension-order-routed message traverses
// between them (XY on a 2D mesh, XYZ on a 3D one).
func ManhattanDist(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Submesh is the cuboid of processors with base (X1, Y1, Z1) and end
// (X2, Y2, Z2), both inclusive (paper Definition 1, extended with the
// depth axis). 2D sub-meshes are the Z1 == Z2 == 0 special case.
type Submesh struct {
	X1, Y1, Z1, X2, Y2, Z2 int
}

// Sub builds a depth-1 sub-mesh in plane 0 from base and end
// coordinates — the paper's 2D Definition 1.
func Sub(x1, y1, x2, y2 int) Submesh {
	return Submesh{X1: x1, Y1: y1, X2: x2, Y2: y2}
}

// SubAt builds the w x l sub-mesh in plane 0 whose base is (x, y).
func SubAt(x, y, w, l int) Submesh {
	return Submesh{X1: x, Y1: y, X2: x + w - 1, Y2: y + l - 1}
}

// Sub3D builds a cuboid sub-mesh from base and end coordinates.
func Sub3D(x1, y1, z1, x2, y2, z2 int) Submesh {
	return Submesh{X1: x1, Y1: y1, Z1: z1, X2: x2, Y2: y2, Z2: z2}
}

// SubAt3D builds the w x l x h sub-mesh whose base is (x, y, z).
func SubAt3D(x, y, z, w, l, h int) Submesh {
	return Submesh{X1: x, Y1: y, Z1: z, X2: x + w - 1, Y2: y + l - 1, Z2: z + h - 1}
}

// W returns the sub-mesh width (extent along x).
func (s Submesh) W() int { return s.X2 - s.X1 + 1 }

// L returns the sub-mesh length (extent along y).
func (s Submesh) L() int { return s.Y2 - s.Y1 + 1 }

// H returns the sub-mesh height (extent along z); 1 for 2D sub-meshes.
func (s Submesh) H() int { return s.Z2 - s.Z1 + 1 }

// Area returns the number of processors in the sub-mesh (the paper's 2D
// area, generalized to W·L·H on a cuboid).
func (s Submesh) Area() int { return s.W() * s.L() * s.H() }

// Valid reports whether the base does not exceed the end in any axis.
func (s Submesh) Valid() bool { return s.X1 <= s.X2 && s.Y1 <= s.Y2 && s.Z1 <= s.Z2 }

// Base returns the sub-mesh base processor.
func (s Submesh) Base() Coord { return Coord{s.X1, s.Y1, s.Z1} }

// End returns the sub-mesh end processor.
func (s Submesh) End() Coord { return Coord{s.X2, s.Y2, s.Z2} }

// Contains reports whether c lies inside the sub-mesh.
func (s Submesh) Contains(c Coord) bool {
	return c.X >= s.X1 && c.X <= s.X2 && c.Y >= s.Y1 && c.Y <= s.Y2 &&
		c.Z >= s.Z1 && c.Z <= s.Z2
}

// Overlaps reports whether two sub-meshes share any processor.
func (s Submesh) Overlaps(o Submesh) bool {
	return s.X1 <= o.X2 && o.X1 <= s.X2 && s.Y1 <= o.Y2 && o.Y1 <= s.Y2 &&
		s.Z1 <= o.Z2 && o.Z1 <= s.Z2
}

// Nodes returns all processors of the sub-mesh, plane by plane in
// row-major order.
func (s Submesh) Nodes() []Coord {
	if !s.Valid() {
		return nil
	}
	out := make([]Coord, 0, s.Area())
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			for x := s.X1; x <= s.X2; x++ {
				out = append(out, Coord{x, y, z})
			}
		}
	}
	return out
}

// String renders the sub-mesh as "(x1,y1,x2,y2)" in plane 0 and
// "(x1,y1,z1,x2,y2,z2)" otherwise.
func (s Submesh) String() string {
	if s.Z1 == 0 && s.Z2 == 0 {
		return fmt.Sprintf("(%d,%d,%d,%d)", s.X1, s.Y1, s.X2, s.Y2)
	}
	return fmt.Sprintf("(%d,%d,%d,%d,%d,%d)", s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2)
}
