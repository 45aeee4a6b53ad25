package geom

import (
	"math"
	"sort"
)

// RangeProjector is the windowed half of a Path's projection: it projects
// a point onto a bounded arc-length window. Route followers and Stanley's
// front axle use it to keep a continuous arc position across
// self-intersecting paths (e.g. a figure-eight), where the globally
// nearest point may belong to the other branch.
type RangeProjector interface {
	// ProjectRange returns the arc position and signed lateral offset of
	// the point on the path closest to q, considering only arc positions
	// in [s0, s1] (wrapped on closed paths).
	ProjectRange(q Vec2, s0, s1 float64) (s, lateral float64)
}

// blockSegs is the number of consecutive segments that share one bounding
// box in the pruned search (see closest).
const blockSegs = 16

// superBlocks is the number of consecutive block boxes that one superblock
// box covers; superSegs is the number of segments under it.
const (
	superBlocks = 8
	superSegs   = superBlocks * blockSegs
)

// box is an axis-aligned bounding box around one block of segments, padded
// so that every closest point a segment of the block can yield lies inside
// it (see blockBoxes).
type box struct{ minX, minY, maxX, maxY float64 }

// blockBoxes returns one box per run of blockSegs consecutive segments of
// the polyline through pts (closed: the last segment returns to pts[0]),
// and one superblock box per superBlocks block boxes, their union. Both
// share one allocation.
func blockBoxes(pts []Vec2, nSeg int) (blocks, supers []box) {
	nb := (nSeg + blockSegs - 1) / blockSegs
	all := make([]box, nb+(nb+superBlocks-1)/superBlocks)
	blocks, supers = all[:nb:nb], all[nb:]
	for b := range blocks {
		first := b * blockSegs
		last := min(first+blockSegs, nSeg) // vertex index of the block's final segment end
		bx := box{minX: pts[first].X, minY: pts[first].Y, maxX: pts[first].X, maxY: pts[first].Y}
		for i := first + 1; i <= last; i++ {
			v := pts[i%len(pts)]
			bx.minX, bx.maxX = min(bx.minX, v.X), max(bx.maxX, v.X)
			bx.minY, bx.maxY = min(bx.minY, v.Y), max(bx.maxY, v.Y)
		}
		// Lerp's rounding can put a closest point a few ULPs outside the
		// hull of its segment's endpoints; 2^-48 of the coordinate
		// magnitude covers that with room to spare. (Subnormal endpoints
		// need no pad: their differences are exact.)
		padX := (math.Abs(bx.minX) + math.Abs(bx.maxX)) * 0x1p-48
		padY := (math.Abs(bx.minY) + math.Abs(bx.maxY)) * 0x1p-48
		blocks[b] = box{bx.minX - padX, bx.minY - padY, bx.maxX + padX, bx.maxY + padY}
	}
	for sb := range supers {
		u := blocks[sb*superBlocks]
		for _, bx := range blocks[sb*superBlocks+1 : min((sb+1)*superBlocks, nb)] {
			u.minX, u.maxX = min(u.minX, bx.minX), max(u.maxX, bx.maxX)
			u.minY, u.maxY = min(u.minY, bx.minY), max(u.maxY, bx.maxY)
		}
		supers[sb] = u
	}
	return blocks, supers
}

// lowerBound returns a value no greater than the squared distance that
// nearest.scan computes from q to any segment of the box's block. Rounding
// is monotone, so the box gap squared and summed the same way never
// exceeds the segment's distance; the 2^-40 shrink keeps that true where
// a fused multiply-add rounds the segment's distance differently. A
// non-finite q yields 0 or +Inf, which never prunes anything.
func (bx *box) lowerBound(q Vec2) float64 {
	dx := gap(q.X, bx.minX, bx.maxX)
	dy := gap(q.Y, bx.minY, bx.maxY)
	return (float64(dx*dx) + float64(dy*dy)) * (1 - 0x1p-40)
}

// gap is the distance from x to the interval [lo, hi] (0 inside it, and
// for NaN).
func gap(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	}
	return 0
}

// nearest is a running closest-point search over polyline segments. It
// keeps the first minimum in the order segments are scanned, so scanning
// any superset of the minimising segment in ascending index order gives
// the same bits as scanning every segment.
type nearest struct {
	q      Vec2
	d2     float64 // squared distance of the best point so far (+Inf: none)
	s, lat float64
}

func newNearest(q Vec2) nearest { return nearest{q: q, d2: math.Inf(1)} }

// scan considers segments lo..hi-1 of p in ascending order.
func (n *nearest) scan(p *Polyline, lo, hi int) {
	q := n.q
	for i := lo; i < hi; i++ {
		a, b := p.segStart(i), p.segEnd(i)
		ab := b.Sub(a)
		L2 := ab.NormSq()
		var t float64
		if L2 > 0 {
			t = Clamp(q.Sub(a).Dot(ab)/L2, 0, 1)
		}
		cp := a.Lerp(b, t)
		d2 := q.Sub(cp).NormSq()
		if d2 < n.d2 {
			n.d2 = d2
			n.s = p.cum[i] + t*math.Sqrt(L2)
			// Signed offset: positive when q is left of the segment tangent.
			n.lat = math.Copysign(math.Sqrt(d2), ab.Cross(q.Sub(a)))
		}
	}
}

// result clamps the best arc position into [0, Length]: cum[] is a running
// sum while the projection recomputes the segment length with Sqrt, so at
// t=1 the two can disagree by one ULP.
func (n *nearest) result(p *Polyline) (s, lateral float64) {
	return Clamp(n.s, 0, p.Length()), n.lat
}

// segRun is a half-open run [lo, hi) of segment indices.
type segRun struct{ lo, hi int }

// closest returns the first-minimum closest point to q over the segments of
// runs (ascending, disjoint), the same bits as scanning them all in order.
// It cuts the runs at block boundaries into chunks. Pass 1 finds the chunk
// whose block box is nearest q (the first such in index order), skipping
// every superblock whose box is no nearer than the best block so far; pass
// 2 scans, in order, only the chunks whose box could match the distance
// found in that chunk, skipping whole superblocks that cannot. A
// superblock's bound never exceeds the bound of a block inside it, so
// neither skip changes which chunks are chosen or scanned.
func (p *Polyline) closest(q Vec2, runs []segRun) nearest {
	kLo, kHi, kLB := -1, -1, math.Inf(1)
	for _, r := range runs {
		for lo := r.lo; lo < r.hi; {
			sHi := min((lo/superSegs+1)*superSegs, r.hi)
			if kLo >= 0 && !(p.supers[lo/superSegs].lowerBound(q) < kLB) {
				lo = sHi
				continue
			}
			for lo < sHi {
				b := lo / blockSegs
				hi := min((b+1)*blockSegs, sHi)
				if lb := p.boxes[b].lowerBound(q); kLo < 0 || lb < kLB {
					kLo, kHi, kLB = lo, hi, lb
				}
				lo = hi
			}
		}
	}
	best := newNearest(q)
	if kLo < 0 {
		return best // no segments
	}
	near := newNearest(q)
	near.scan(p, kLo, kHi)
	for _, r := range runs {
		for lo := r.lo; lo < r.hi; {
			sHi := min((lo/superSegs+1)*superSegs, r.hi)
			if (kLo < lo || kLo >= sHi) && !(p.supers[lo/superSegs].lowerBound(q) <= near.d2) {
				lo = sHi
				continue
			}
			for lo < sHi {
				b := lo / blockSegs
				hi := min((b+1)*blockSegs, sHi)
				switch {
				case lo == kLo:
					// Merging the chunk's own first minimum is the same as
					// rescanning it.
					if near.d2 < best.d2 {
						best = near
					}
				case p.boxes[b].lowerBound(q) <= near.d2:
					best.scan(p, lo, hi)
				}
				lo = hi
			}
		}
	}
	return best
}

// Project implements Path. It is global, so unlike a local search from a
// previous position it handles self-approaching paths, and it returns
// exactly what a scan of every segment in index order would (first minimum
// wins) while visiting only the blocks of segments near q.
func (p *Polyline) Project(q Vec2) (s, lateral float64) {
	best := p.closest(q, []segRun{{0, len(p.cum) - 1}})
	return best.result(p)
}

// ProjectRange implements RangeProjector for polylines. cum[] is sorted, so
// the segments overlapping the window form one index run (two when the
// window wraps a closed path's seam), found from the segment hint table
// and searched like Project searches the whole path. An inverted, empty or
// whole-loop window falls back to Project.
func (p *Polyline) ProjectRange(q Vec2, s0, s1 float64) (s, lateral float64) {
	if s1 <= s0 {
		return p.Project(q)
	}
	L := p.Length()
	nSeg := len(p.cum) - 1
	var runs [2]segRun
	switch {
	case !p.closed:
		s0 = Clamp(s0, 0, L)
		s1 = Clamp(s1, 0, L)
		if s1 <= s0 {
			return p.Project(q)
		}
		runs[0] = segRun{p.firstEnding(s0), p.startsUpTo(s1)}
	case s1-s0 >= L:
		return p.Project(q)
	default:
		// Wrap the window into [0, L) pieces.
		w0 := math.Mod(s0, L)
		if w0 < 0 {
			w0 += L
		}
		w1 := w0 + (s1 - s0)
		if w1 <= L {
			runs[0] = segRun{p.firstEnding(w0), p.startsUpTo(w1)}
			break
		}
		// The seam's head [0, startsUpTo(w1-L)) and tail
		// [firstEnding(w0), nSeg); a segment in both is searched once.
		head := p.startsUpTo(w1 - L)
		runs = [2]segRun{{0, head}, {max(p.firstEnding(w0), head), nSeg}}
	}
	best := p.closest(q, runs[:])
	if math.IsInf(best.d2, 1) {
		return p.Project(q)
	}
	return best.result(p)
}

// firstEnding returns the first segment whose end reaches w, or the
// segment count if none does: sort.Search over cum[i+1] >= w. Within
// [0, Length] it walks from the hint for w; the predicate is monotone, so
// the walk ends where the binary search would. A NaN w gives the count.
func (p *Polyline) firstEnding(w float64) int {
	nSeg := len(p.cum) - 1
	if !(0 <= w && w <= p.cum[nSeg]) {
		return sort.Search(nSeg, func(i int) bool { return p.cum[i+1] >= w })
	}
	i := p.hintAt(w)
	for i > 0 && p.cum[i] >= w {
		i--
	}
	for i < nSeg && p.cum[i+1] < w {
		i++
	}
	return i
}

// startsUpTo returns the number of segments that start at or before w:
// sort.Search over !(cum[i] <= w), walked from the hint like firstEnding.
// A NaN w gives 0.
func (p *Polyline) startsUpTo(w float64) int {
	nSeg := len(p.cum) - 1
	if !(0 <= w && w <= p.cum[nSeg]) {
		return sort.Search(nSeg, func(i int) bool { return !(p.cum[i] <= w) })
	}
	i := p.hintAt(w)
	for i > 0 && !(p.cum[i-1] <= w) {
		i--
	}
	for i < nSeg && p.cum[i] <= w {
		i++
	}
	return i
}

// ProjectRange implements RangeProjector for splines via the lattice.
func (s *Spline) ProjectRange(q Vec2, s0, s1 float64) (arc, lateral float64) {
	return s.lattice.ProjectRange(q, s0, s1)
}

var (
	_ Path = (*Polyline)(nil)
	_ Path = (*Spline)(nil)
)
