package mutate

import (
	"encoding/json"
	"math"
	"testing"

	"adassure/internal/control"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/sensors"
	"adassure/internal/vehicle"
)

// FuzzMutantSpec checks the spec contract over arbitrary (op, param)
// inputs: any accepted spec canonicalizes stably (idempotent, stable ID),
// round-trips through JSON, and its mutant never produces a non-finite
// controller command on a clean synthetic drive — with the single
// documented exception of the NaN-leak operator, whose leaked NaN is the
// mutation itself (the simulator's plant sanitises it and the monitor
// skips the affected frames).
func FuzzMutantSpec(f *testing.F) {
	for _, s := range DefaultCatalog() {
		f.Add(s.Op, s.Param)
	}
	f.Add("no-such-op", 1.0)
	f.Add(OpGainScale, math.NaN())
	f.Add(OpGainScale, math.Inf(1))
	f.Add(OpNaNLeak, 2.7)
	f.Add(OpIdentity, 0.5)
	f.Add("", 0.0)

	f.Fuzz(func(t *testing.T, op string, param float64) {
		spec := Spec{Op: op, Param: param}
		canon, err := spec.Canonicalize()
		if err != nil {
			return // rejected specs are out of contract
		}

		// Canonicalization is a fixed point with a stable identity.
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %+v rejected on re-canonicalize: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("Canonicalize not idempotent: %+v -> %+v", canon, again)
		}
		if canon.ID() == "" || canon.ID() != again.ID() {
			t.Fatalf("unstable ID for %+v: %q vs %q", canon, canon.ID(), again.ID())
		}
		if canon.Kind() == "" {
			t.Fatalf("accepted spec %+v has no kind", canon)
		}

		// JSON round trip preserves the canonical spec exactly.
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("marshal %+v: %v", canon, err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != canon {
			t.Fatalf("JSON round trip drifted: %+v -> %s -> %+v", canon, b, back)
		}

		// Clean synthetic drive: the mutated controllers and fault hooks
		// must keep every command finite (NaN-leak steering excepted).
		driveClean(t, canon)
	})
}

// driveClean exercises the mutant's hooks against a synthetic clean run:
// a circular reference path with on-path estimates for the controller
// wrappers, nominal readings for the fault hooks.
func driveClean(t *testing.T, spec Spec) {
	t.Helper()
	params := vehicle.ShuttleParams()

	const radius = 20.0
	pts := make([]geom.Vec2, 36)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(len(pts))
		pts[i] = geom.V(radius*math.Cos(a), radius*math.Sin(a))
	}
	path, err := geom.NewClosedPolyline(pts)
	if err != nil {
		t.Fatalf("build fuzz path: %v", err)
	}

	if spec.Kind() == KindController && spec.Op != OpSatRemove {
		inner, err := control.ByName("pure-pursuit", params)
		if err != nil {
			t.Fatal(err)
		}
		m := &mutatedLateral{inner: inner, spec: spec}
		leakEvery := 0
		if spec.Op == OpNaNLeak {
			leakEvery = int(spec.Param)
		}
		for i := 1; i <= 200; i++ {
			a := 0.02 * float64(i)
			est := fusion.Estimate{
				T:       0.05 * float64(i),
				Pose:    geom.NewPose(radius*math.Cos(a), radius*math.Sin(a), a+math.Pi/2),
				Speed:   5,
				YawRate: 5 / radius,
			}
			s, cte := path.Project(est.Pose.Pos)
			ref := control.NewReference(path, est, s, cte, 0)
			raw := m.Steer(est, &ref, 0.05)
			if math.IsInf(raw, 0) {
				t.Fatalf("%s: infinite steer at step %d", spec.ID(), i)
			}
			if math.IsNaN(raw) && (leakEvery == 0 || i%leakEvery != 0) {
				t.Fatalf("%s: NaN steer at step %d outside the leak schedule", spec.ID(), i)
			}
		}
		m.Reset()
	}

	if spec.Op == OpSatRemove {
		sp := newUnsaturatedSpeed(control.NewSpeedPID(params))
		v := 1.0
		for i := 0; i < 200; i++ {
			accel := sp.Accel(v, 6, 0.05)
			if math.IsNaN(accel) || math.IsInf(accel, 0) {
				t.Fatalf("%s: non-finite accel %g at step %d", spec.ID(), accel, i)
			}
			v += geom.Clamp(accel, -params.MaxBrake, params.MaxAccel) * 0.05
		}
		sp.Reset()
	}

	if spec.Kind() == KindSensor || spec.Kind() == KindActuator {
		faults := buildFaults(spec)
		if faults == nil {
			t.Fatalf("%s: no fault set built", spec.ID())
		}
		for i := 0; i < 100; i++ {
			tm := 0.1 * float64(i)
			if faults.GNSS != nil {
				fix := sensors.GNSSFix{T: tm, Pos: geom.V(tm*5, 1), Speed: 5, Valid: true}
				if out, deliver := faults.GNSS(fix, tm); deliver {
					if !out.Pos.IsFinite() || math.IsNaN(out.T) {
						t.Fatalf("%s: non-finite GNSS output %+v", spec.ID(), out)
					}
				}
			}
			if faults.Odom != nil {
				r := sensors.OdomReading{T: tm, Speed: 5, Valid: true}
				if out, deliver := faults.Odom(r, tm); deliver {
					if math.IsNaN(out.Speed) || math.IsInf(out.Speed, 0) {
						t.Fatalf("%s: non-finite odom output %+v", spec.ID(), out)
					}
				}
			}
			if faults.Actuator != nil {
				cmd := faults.Actuator(vehicle.Command{Steer: 0.1, Accel: 0.5}, tm)
				if math.IsNaN(cmd.Steer) || math.IsInf(cmd.Steer, 0) ||
					math.IsNaN(cmd.Accel) || math.IsInf(cmd.Accel, 0) {
					t.Fatalf("%s: non-finite actuator output %+v", spec.ID(), cmd)
				}
			}
		}
	}
}
