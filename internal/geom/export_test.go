package geom

// Lattice exposes a spline's lattice polyline to the external tests, which
// need the built-in tracks (package track imports geom).
func (s *Spline) Lattice() *Polyline { return s.lattice }

// FuzzCoordBound is fuzzCoordBound for the external fuzz targets.
const FuzzCoordBound = fuzzCoordBound

// SuperSegs is superSegs for the external tests.
const SuperSegs = superSegs
