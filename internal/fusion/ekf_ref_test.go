package fusion

import (
	"math"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// refEKF is the filter as it was written on a general heap-backed matrix
// type, kept as the oracle the fixed-array EKF must match bit for bit. Each
// operation allocates its result; the arithmetic (loop order, zero skip,
// pivoting, symmetrisation) is the original's.
type refEKF struct {
	gate                     float64
	x, p                     dense
	t, yawRate, lastNIS      float64
	lastAccepted             bool
	rejectStreak             int
	h2, h2T, r2, h1, h1T, r1 dense
}

func newRefEKF(gate, t0 float64, pose geom.Pose, speed float64) *refEKF {
	f := &refEKF{gate: gate, x: newDense(4, 1), p: denseEye(4), t: t0, lastAccepted: true}
	f.x.set(0, 0, pose.Pos.X)
	f.x.set(1, 0, pose.Pos.Y)
	f.x.set(2, 0, pose.Heading)
	f.x.set(3, 0, speed)
	s2 := initialPosStdDev
	s2 *= s2
	f.p.set(0, 0, s2)
	f.p.set(1, 1, s2)
	f.p.set(2, 2, 0.05)
	f.p.set(3, 3, 0.25)
	f.h2 = newDense(2, 4)
	f.h2.set(0, 0, 1)
	f.h2.set(1, 1, 1)
	f.h2T = f.h2.tr()
	gv := gnssPosStdDev
	gv *= gv
	f.r2 = newDense(2, 2)
	f.r2.set(0, 0, gv)
	f.r2.set(1, 1, gv)
	f.h1 = newDense(1, 4)
	f.h1.set(0, 3, 1)
	f.h1T = f.h1.tr()
	ov := odomSpeedStdDev
	ov *= ov
	f.r1 = newDense(1, 1)
	f.r1.set(0, 0, ov)
	return f
}

func (f *refEKF) PredictIMU(r sensors.IMUReading) {
	if !r.Valid || r.T <= f.t {
		return
	}
	dt := r.T - f.t
	f.t = r.T
	f.yawRate = r.YawRate
	th := f.x.at(2, 0)
	v := f.x.at(3, 0)
	thMid := th + r.YawRate*dt/2
	f.x.set(0, 0, f.x.at(0, 0)+v*math.Cos(thMid)*dt)
	f.x.set(1, 0, f.x.at(1, 0)+v*math.Sin(thMid)*dt)
	f.x.set(2, 0, geom.NormalizeAngle(th+r.YawRate*dt))
	f.x.set(3, 0, math.Max(0, v+r.Accel*dt))

	F := denseEye(4)
	F.set(0, 2, -v*math.Sin(thMid)*dt)
	F.set(0, 3, math.Cos(thMid)*dt)
	F.set(1, 2, v*math.Cos(thMid)*dt)
	F.set(1, 3, math.Sin(thMid)*dt)
	Q := newDense(4, 4)
	Q.set(0, 0, posProcNoise*dt)
	Q.set(1, 1, posProcNoise*dt)
	Q.set(2, 2, headingProcNoise*dt)
	Q.set(3, 3, speedProcNoise*dt)
	f.p = F.mul(f.p).mul(F.tr()).add(Q).sym()
}

func (f *refEKF) UpdateGNSS(fix sensors.GNSSFix) (float64, bool) {
	if !fix.Valid {
		return 0, false
	}
	y := newDense(2, 1)
	y.set(0, 0, fix.Pos.X-f.x.at(0, 0))
	y.set(1, 0, fix.Pos.Y-f.x.at(1, 0))
	S := f.h2.mul(f.p).mul(f.h2T).add(f.r2)
	Sinv := S.inv()
	nis := y.tr().mul(Sinv).mul(y).at(0, 0)
	f.lastNIS = nis
	if f.gate > 0 && nis > f.gate {
		f.lastAccepted = false
		f.rejectStreak++
		return nis, false
	}
	f.lastAccepted = true
	f.rejectStreak = 0
	K := f.p.mul(f.h2T).mul(Sinv)
	f.x = f.x.add(K.mul(y))
	f.x.set(2, 0, geom.NormalizeAngle(f.x.at(2, 0)))
	f.x.set(3, 0, math.Max(0, f.x.at(3, 0)))
	f.p = denseEye(4).sub(K.mul(f.h2)).mul(f.p).sym()
	return nis, true
}

func (f *refEKF) UpdateOdom(r sensors.OdomReading) {
	if !r.Valid {
		return
	}
	y := newDense(1, 1)
	y.set(0, 0, r.Speed-f.x.at(3, 0))
	S := f.h1.mul(f.p).mul(f.h1T).add(f.r1)
	K := f.p.mul(f.h1T).mul(S.inv())
	f.x = f.x.add(K.mul(y))
	f.x.set(3, 0, math.Max(0, f.x.at(3, 0)))
	f.p = denseEye(4).sub(K.mul(f.h1)).mul(f.p).sym()
}

func (f *refEKF) Estimate() Estimate {
	sx := math.Sqrt(math.Max(0, f.p.at(0, 0)))
	sy := math.Sqrt(math.Max(0, f.p.at(1, 1)))
	return Estimate{
		T:         f.t,
		Pose:      geom.Pose{Pos: geom.V(f.x.at(0, 0), f.x.at(1, 0)), Heading: f.x.at(2, 0)},
		Speed:     f.x.at(3, 0),
		YawRate:   f.yawRate,
		PosStdDev: math.Sqrt(sx * sy),
	}
}

// dense is the original row-major matrix: every operation returns a fresh
// matrix.
type dense struct {
	r, c int
	a    []float64
}

func newDense(r, c int) dense { return dense{r: r, c: c, a: make([]float64, r*c)} }

func denseEye(n int) dense {
	m := newDense(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

func (m dense) at(i, j int) float64     { return m.a[i*m.c+j] }
func (m dense) set(i, j int, v float64) { m.a[i*m.c+j] = v }

func (m dense) add(n dense) dense {
	out := newDense(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] + n.a[i]
	}
	return out
}

func (m dense) sub(n dense) dense {
	out := newDense(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] - n.a[i]
	}
	return out
}

func (m dense) mul(n dense) dense {
	if m.c != n.r {
		panic("dense: dimension mismatch")
	}
	out := newDense(m.r, n.c)
	for i := 0; i < m.r; i++ {
		for k := 0; k < m.c; k++ {
			mik := m.a[i*m.c+k]
			if mik == 0 {
				continue
			}
			for j := 0; j < n.c; j++ {
				out.a[i*n.c+j] += mik * n.a[k*n.c+j]
			}
		}
	}
	return out
}

func (m dense) tr() dense {
	out := newDense(m.c, m.r)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			out.set(j, i, m.at(i, j))
		}
	}
	return out
}

func (m dense) sym() dense {
	out := newDense(m.r, m.c)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			out.set(i, j, (m.at(i, j)+m.at(j, i))/2)
		}
	}
	return out
}

func (m dense) inv() dense {
	n := m.r
	aug := newDense(n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug.set(i, j, m.at(i, j))
		}
		aug.set(i, n+i, 1)
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug.at(r, col)) > math.Abs(aug.at(piv, col)) {
				piv = r
			}
		}
		if math.Abs(aug.at(piv, col)) < 1e-14 {
			panic("dense: singular matrix")
		}
		if piv != col {
			for j := 0; j < 2*n; j++ {
				a, b := aug.at(col, j), aug.at(piv, j)
				aug.set(col, j, b)
				aug.set(piv, j, a)
			}
		}
		d := aug.at(col, col)
		for j := 0; j < 2*n; j++ {
			aug.set(col, j, aug.at(col, j)/d)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug.at(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				aug.set(r, j, aug.at(r, j)-f*aug.at(col, j))
			}
		}
	}
	out := newDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.set(i, j, aug.at(i, n+j))
		}
	}
	return out
}
