package core

import "math"

// refRealGCD and refAngleDiff are realGCD and angleDiff as they were
// written on math.Mod, kept as the oracle the fast forms must match bit
// for bit.
func refRealGCD(a, b, eps float64) float64 {
	for b > eps {
		a, b = b, math.Mod(a, b)
	}
	return a
}

func refAngleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d < -math.Pi:
		d += 2 * math.Pi
	}
	return d
}
