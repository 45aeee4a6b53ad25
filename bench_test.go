// Benchmark harness: one testing.B benchmark per evaluation table and
// figure (T1–T6, F1–F6), each regenerating the experiment from fresh
// simulation runs, plus micro-benchmarks of the hot paths (monitor step,
// EKF update, controller step, full closed-loop simulation second).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks use Quick options with a single seed so one
// iteration stays in the seconds range; `cmd/adassure-bench` regenerates
// the full-fidelity tables.
package adassure

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/planner"
	"adassure/internal/sensors"
	"adassure/internal/sim"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

func benchOpts() ExperimentOptions {
	return ExperimentOptions{Quick: true, Seeds: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per table -------------------------------------------

func BenchmarkTable1DetectionMatrix(b *testing.B)      { benchExperiment(b, "T1") }
func BenchmarkTable2DetectionLatency(b *testing.B)     { benchExperiment(b, "T2") }
func BenchmarkTable3DetectionRates(b *testing.B)       { benchExperiment(b, "T3") }
func BenchmarkTable4DiagnosisAccuracy(b *testing.B)    { benchExperiment(b, "T4") }
func BenchmarkTable5ControllerComparison(b *testing.B) { benchExperiment(b, "T5") }
func BenchmarkTable6DebugLoop(b *testing.B)            { benchExperiment(b, "T6") }

// --- one benchmark per figure --------------------------------------------

func BenchmarkFigure1CrossTrackSeries(b *testing.B)  { benchExperiment(b, "F1") }
func BenchmarkFigure2Trajectory(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkFigure3LatencyCDF(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkFigure4MonitorOverhead(b *testing.B)   { benchExperiment(b, "F4") }
func BenchmarkFigure5ThresholdAblation(b *testing.B) { benchExperiment(b, "F5") }
func BenchmarkFigure6DebounceAblation(b *testing.B)  { benchExperiment(b, "F6") }

// --- extension experiments -------------------------------------------------

func BenchmarkExtensionX1GuardAblation(b *testing.B)      { benchExperiment(b, "X1") }
func BenchmarkExtensionX2DriftRateSweep(b *testing.B)     { benchExperiment(b, "X2") }
func BenchmarkExtensionX3StepMagnitudeSweep(b *testing.B) { benchExperiment(b, "X3") }
func BenchmarkExtensionX4AssertionUtility(b *testing.B)   { benchExperiment(b, "X4") }
func BenchmarkExtensionX5FusionAblation(b *testing.B)     { benchExperiment(b, "X5") }

// --- parallel harness path -------------------------------------------------

// BenchmarkHarnessWorkers compares the experiment harness at workers=1
// (the sequential path) against workers=GOMAXPROCS on the T1 detection
// matrix — the headline number for the internal/runner scenario pool. The
// rendered table is byte-identical at every worker count (see
// internal/harness TestParallelDeterminism), so the two sub-benchmarks
// measure the same work; only wall-clock changes. On a single-core
// machine the two are expected to tie.
func BenchmarkHarnessWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				tb, err := RunExperiment("T1", opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := tb.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunScenarios measures the public parallel scenario batch API
// on an 8-scenario attack sweep, workers=1 vs workers=GOMAXPROCS.
func BenchmarkRunScenarios(b *testing.B) {
	scns := make([]Scenario, 8)
	for i := range scns {
		scns[i] = Scenario{
			Attack:   AttackStepSpoof,
			Seed:     int64(i + 1),
			Duration: 30,
		}
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunScenarios(context.Background(), scns, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot paths -----------------------------------

// BenchmarkMonitorStepFullCatalog measures the runtime-monitoring cost per
// control frame with the complete catalog loaded — the number behind the
// "negligible overhead" claim. It replays the recorded frames of a clean
// run and of a GNSS step-spoof run, so every assertion sees a real stream:
// A15 folds real fix deltas, and the spoof raises and clears episodes.
func BenchmarkMonitorStepFullCatalog(b *testing.B) {
	for _, attack := range []AttackName{AttackNone, AttackStepSpoof} {
		res, err := Scenario{Attack: attack, RecordFrames: true}.Run()
		if err != nil {
			b.Fatal(err)
		}
		frames := res.Recording.Frames
		b.Run(string(attack), func(b *testing.B) {
			mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(frames)
				if k == 0 && i > 0 {
					b.StopTimer()
					mon.Reset()
					b.StartTimer()
				}
				mon.Step(frames[k])
			}
		})
	}
}

// BenchmarkEKFPredictUpdate measures one IMU predict plus one update: a
// GNSS fix (gnss) or a wheel-speed reading (odom).
func BenchmarkEKFPredictUpdate(b *testing.B) {
	for _, c := range []struct {
		name   string
		update func(f *fusion.EKF, t float64)
	}{
		{"gnss", func(f *fusion.EKF, t float64) {
			f.UpdateGNSS(sensors.GNSSFix{T: t, Pos: geom.V(5*t, 0), Valid: true})
		}},
		{"odom", func(f *fusion.EKF, t float64) {
			f.UpdateOdom(sensors.OdomReading{T: t, Speed: 5, Valid: true})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := fusion.NewEKF(0, 0, geom.NewPose(0, 0, 0), 5)
			t := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t += 0.01
				f.PredictIMU(sensors.IMUReading{T: t, YawRate: 0.01, Valid: true})
				c.update(f, t)
			}
		})
	}
}

// BenchmarkControllerSteer measures one lateral control step per built-in
// controller on the urban loop, from a reference computed once outside
// the loop as the simulator's follower computes it once per step.
func BenchmarkControllerSteer(b *testing.B) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, ctrl := range control.All(vehicle.ShuttleParams()) {
		b.Run(ctrl.Name(), func(b *testing.B) {
			est := fusion.Estimate{Pose: geom.NewPose(10, 0.5, 0.05), Speed: 5}
			s, cte := tr.Path().Project(est.Pose.Pos)
			ref := control.NewReference(tr.Path(), est, s, cte, 0)
			for i := 0; i < b.N; i++ {
				ctrl.Steer(est, &ref, 0.05)
			}
		})
	}
}

// BenchmarkPathProject measures global point-to-path projection on a
// spline lattice (every controller's Steer calls it each tick): near the
// urban loop, at the loop's centre far from every edge, at the
// figure-eight's self-crossing, where both branches are equally near, and
// near the middle of the 200 m straight (an open path of 801 segments).
func BenchmarkPathProject(b *testing.B) {
	loop, err := track.UrbanLoop(6)
	if err != nil {
		b.Fatal(err)
	}
	eight, err := track.FigureEight(30, 6)
	if err != nil {
		b.Fatal(err)
	}
	straight, err := track.Straight(200, 6)
	if err != nil {
		b.Fatal(err)
	}
	near := loop.Path().PointAt(100).Add(geom.V(0.3, -0.2))
	for _, c := range []struct {
		name string
		path geom.Path
		q    geom.Vec2
	}{
		{"near", loop.Path(), near},
		{"far", loop.Path(), geom.V(45, 33)},
		{"crossing", eight.Path(), geom.V(0.2, 0.1)},
		{"straight", straight.Path(), straight.Path().PointAt(100).Add(geom.V(0.3, -0.2))},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.path.Project(c.q)
			}
		})
	}
}

// BenchmarkPathProjectRange measures the windowed projection the route
// follower makes every tick, with its 15 m back / 25 m ahead window.
func BenchmarkPathProjectRange(b *testing.B) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		b.Fatal(err)
	}
	rp := tr.Path().(geom.RangeProjector)
	const s = 100.0
	q := tr.Path().PointAt(s).Add(geom.V(0.3, -0.2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.ProjectRange(q, s-15, s+25)
	}
}

// BenchmarkSpeedProfileTargetAt measures the two speed-preview queries the
// step makes each control tick, at s and s + 3 m, for the shuttle on every
// built-in track, stepping s by 0.37 m along each track in turn.
func BenchmarkSpeedProfileTargetAt(b *testing.B) {
	cat, err := track.Catalog(track.DefaultSpeedLimit)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		sp *planner.SpeedProfile
		s  float64
	}
	var qs []query
	for _, name := range track.Names(cat) {
		sp, err := planner.NewSpeedProfileForTrack(cat[name], vehicle.ShuttleParams())
		if err != nil {
			b.Fatal(err)
		}
		for s := 0.0; s < cat[name].Path().Length(); s += 0.37 {
			qs = append(qs, query{sp, s})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		targetSink = q.sp.TargetAt(q.s) + q.sp.TargetAt(q.s+3)
	}
}

// targetSink keeps BenchmarkSpeedProfileTargetAt's calls from being
// optimised away.
var targetSink float64

// BenchmarkSimSecond measures one simulated second of the full closed loop
// (physics + sensors + fusion + control + monitor) — the end-to-end
// throughput number.
func BenchmarkSimSecond(b *testing.B) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
		_, err := sim.Run(sim.Config{
			Track: tr, Controller: "pure-pursuit", Seed: 1,
			Duration: 1, Monitor: mon,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepWithObs compares the full closed loop with and without a
// metrics registry attached: the observability overhead DESIGN.md §9
// records. It reports the numbers and checks nothing; TestObsOverheadBound
// checks the ≤5% bound on 70 s runs, where a run's fixed setup weighs
// less than in these 1 s runs. The obs=off case exercises the
// nil-registry path the instrumented code always runs through; obs=on
// adds the sampled step and per-assertion timing and the exact counters.
// The registry is built once, before the timed loop, as a long-lived
// process holds one.
func BenchmarkStepWithObs(b *testing.B) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, attach := range []bool{false, true} {
		name := "obs=off"
		if attach {
			name = "obs=on"
		}
		b.Run(name, func(b *testing.B) {
			var reg *Registry
			if attach {
				reg = NewRegistry()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
				_, err := sim.Run(sim.Config{
					Track: tr, Controller: "pure-pursuit", Seed: 1,
					Duration: 1, Monitor: mon, Obs: reg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttackApply measures the per-fix cost of the attack transforms.
func BenchmarkAttackApply(b *testing.B) {
	camp, err := attacks.Standard(attacks.ClassDriftSpoof, attacks.Window{Start: 0, End: 1e9}, 1)
	if err != nil {
		b.Fatal(err)
	}
	fix := sensors.GNSSFix{T: 10, Pos: geom.V(1, 2), Valid: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp.GNSS.Apply(fix, 10)
	}
}

// BenchmarkDiagnose measures the diagnosis cost on a realistic violation
// record.
func BenchmarkDiagnose(b *testing.B) {
	var vs []Violation
	for i := 0; i < 30; i++ {
		vs = append(vs, Violation{AssertionID: "A10", T: 20 + float64(i), Duration: 0.5})
	}
	vs = append(vs, Violation{AssertionID: "A4", T: 20.15, Duration: 25})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diagnose(vs)
	}
}
