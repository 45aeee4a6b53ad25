package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"adassure"
	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/sensors"
	"adassure/internal/sim"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// ledgerTolerance is the largest share of traced time a ledger may leave
// unattributed and still count as closed.
const ledgerTolerance = 0.05

// timer counts calls into a layer and the wall time they took.
type timer struct{ calls, ns int64 }

func (t *timer) since(start time.Time) {
	t.calls++
	t.ns += int64(time.Since(start))
}

func (t *timer) add(o timer) {
	t.calls += o.calls
	t.ns += o.ns
}

func (t timer) perCall() float64 { return ratio(t.ns, t.calls) }

// layerTimes is the time one traced scenario, or a sum of them, spent in
// each layer. A scenario runs on one goroutine, so it needs no lock.
type layerTimes struct {
	project, projectRange, curvature, otherGeom timer
	steer, accel, attack                        timer
	catalog, simRun, diagnosis, total           timer
	steerGeomNS                                 int64 // path time inside Steer, also in the geom timers
	delivered                                   int64 // sensor readings that reached the attack stage
	steps                                       int64
}

func (l *layerTimes) geomNS() int64 {
	return l.project.ns + l.projectRange.ns + l.curvature.ns + l.otherGeom.ns
}

func (l *layerTimes) add(o *layerTimes) {
	l.project.add(o.project)
	l.projectRange.add(o.projectRange)
	l.curvature.add(o.curvature)
	l.otherGeom.add(o.otherGeom)
	l.steer.add(o.steer)
	l.accel.add(o.accel)
	l.attack.add(o.attack)
	l.catalog.add(o.catalog)
	l.simRun.add(o.simRun)
	l.diagnosis.add(o.diagnosis)
	l.total.add(o.total)
	l.steerGeomNS += o.steerGeomNS
	l.delivered += o.delivered
	l.steps += o.steps
}

// timedPath times every call into a track's reference path. It implements
// geom.RangeProjector like the path it wraps: planner.NewFollower
// type-asserts it, and without it the follower would fall back to global
// projection and the traced run would measure a different program.
type timedPath struct {
	inner geom.Path
	rp    geom.RangeProjector
	lt    *layerTimes
}

var _ geom.RangeProjector = (*timedPath)(nil)

func newTimedPath(p geom.Path, lt *layerTimes) (*timedPath, error) {
	rp, ok := p.(geom.RangeProjector)
	if !ok {
		return nil, fmt.Errorf("path %T does not implement geom.RangeProjector", p)
	}
	return &timedPath{inner: p, rp: rp, lt: lt}, nil
}

func (p *timedPath) Length() float64 {
	start := time.Now()
	v := p.inner.Length()
	p.lt.otherGeom.since(start)
	return v
}

func (p *timedPath) PointAt(s float64) geom.Vec2 {
	start := time.Now()
	v := p.inner.PointAt(s)
	p.lt.otherGeom.since(start)
	return v
}

func (p *timedPath) HeadingAt(s float64) float64 {
	start := time.Now()
	v := p.inner.HeadingAt(s)
	p.lt.otherGeom.since(start)
	return v
}

func (p *timedPath) Closed() bool {
	start := time.Now()
	v := p.inner.Closed()
	p.lt.otherGeom.since(start)
	return v
}

func (p *timedPath) CurvatureAt(s float64) float64 {
	start := time.Now()
	v := p.inner.CurvatureAt(s)
	p.lt.curvature.since(start)
	return v
}

func (p *timedPath) Project(q geom.Vec2) (float64, float64) {
	start := time.Now()
	s, lat := p.inner.Project(q)
	p.lt.project.since(start)
	return s, lat
}

func (p *timedPath) ProjectRange(q geom.Vec2, s0, s1 float64) (float64, float64) {
	start := time.Now()
	s, lat := p.rp.ProjectRange(q, s0, s1)
	p.lt.projectRange.since(start)
	return s, lat
}

// timedLateral times the lateral controller. Its own time excludes the
// path calls Steer makes, which timedPath already counts.
type timedLateral struct {
	control.Lateral
	lt *layerTimes
}

func (c timedLateral) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	geomBefore := c.lt.geomNS()
	start := time.Now()
	v := c.Lateral.Steer(est, path, dt)
	c.lt.steer.since(start)
	c.lt.steerGeomNS += c.lt.geomNS() - geomBefore
	return v
}

type timedSpeed struct {
	control.Longitudinal
	lt *layerTimes
}

func (c timedSpeed) Accel(speed, target, dt float64) float64 {
	start := time.Now()
	v := c.Longitudinal.Accel(speed, target, dt)
	c.lt.accel.since(start)
	return v
}

type timedGNSS struct {
	attacks.GNSSAttack
	t *timer
}

func (a timedGNSS) Apply(fix sensors.GNSSFix, at float64) (sensors.GNSSFix, bool) {
	start := time.Now()
	out, ok := a.GNSSAttack.Apply(fix, at)
	a.t.since(start)
	return out, ok
}

type timedIMU struct {
	attacks.IMUAttack
	t *timer
}

func (a timedIMU) Apply(r sensors.IMUReading, at float64) (sensors.IMUReading, bool) {
	start := time.Now()
	out, ok := a.IMUAttack.Apply(r, at)
	a.t.since(start)
	return out, ok
}

type timedOdom struct {
	attacks.OdomAttack
	t *timer
}

func (a timedOdom) Apply(r sensors.OdomReading, at float64) (sensors.OdomReading, bool) {
	start := time.Now()
	out, ok := a.OdomAttack.Apply(r, at)
	a.t.since(start)
	return out, ok
}

type timedActuator struct {
	attacks.ActuatorAttack
	t *timer
}

func (a timedActuator) Apply(cmd vehicle.Command, at float64) vehicle.Command {
	start := time.Now()
	out := a.ActuatorAttack.Apply(cmd, at)
	a.t.since(start)
	return out
}

// timedCampaign wraps every channel of c in a timer.
func timedCampaign(c attacks.Campaign, t *timer) attacks.Campaign {
	if c.GNSS != nil {
		c.GNSS = timedGNSS{c.GNSS, t}
	}
	if c.IMU != nil {
		c.IMU = timedIMU{c.IMU, t}
	}
	if c.Odom != nil {
		c.Odom = timedOdom{c.Odom, t}
	}
	if c.Actuator != nil {
		c.Actuator = timedActuator{c.Actuator, t}
	}
	return c
}

// countingFaults is an identity fault set that counts the sensor readings
// reaching the attack stage.
func countingFaults(n *int64) *sim.FaultSet {
	return &sim.FaultSet{
		GNSS: func(fix sensors.GNSSFix, _ float64) (sensors.GNSSFix, bool) { *n++; return fix, true },
		IMU:  func(r sensors.IMUReading, _ float64) (sensors.IMUReading, bool) { *n++; return r, true },
		Odom: func(r sensors.OdomReading, _ float64) (sensors.OdomReading, bool) { *n++; return r, true },
	}
}

// withDefaults fills s the way Scenario.RunContext does.
func withDefaults(s adassure.Scenario) adassure.Scenario {
	if s.Track == "" {
		s.Track = adassure.TrackUrbanLoop
	}
	if s.Controller == "" {
		s.Controller = adassure.ControllerPurePursuit
	}
	if s.Attack == "" {
		s.Attack = adassure.AttackNone
	}
	if s.AttackStart == 0 {
		s.AttackStart = 20
	}
	if s.AttackEnd == 0 {
		s.AttackEnd = 50
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = 70
	}
	if s.SpeedLimit == 0 {
		s.SpeedLimit = 6
	}
	return s
}

// runTraced runs s as Scenario.RunContext does, but through sim.Run with a
// timing wrapper around each layer reachable from outside: the path
// (passed through track.New), the controllers (WrapLateral, WrapSpeed), the
// attack channels, and identity sensor fault hooks. Its digest must equal
// the plain run's.
func runTraced(ctx context.Context, s adassure.Scenario, lt *layerTimes) (outcome, error) {
	s = withDefaults(s)
	start := time.Now()
	cat, err := track.Catalog(s.SpeedLimit)
	lt.catalog.since(start)
	if err != nil {
		return outcome{}, err
	}
	base, ok := cat[string(s.Track)]
	if !ok {
		return outcome{}, fmt.Errorf("unknown track %q", s.Track)
	}
	if len(base.Zones()) > 0 {
		return outcome{}, fmt.Errorf("track %q has speed zones, which the traced run would drop", s.Track)
	}
	path, err := newTimedPath(base.Path(), lt)
	if err != nil {
		return outcome{}, err
	}
	tr, err := track.New(base.Name(), path, base.SpeedLimit())
	if err != nil {
		return outcome{}, err
	}
	var camp attacks.Campaign
	if s.Attack != adassure.AttackNone {
		camp, err = attacks.Standard(attacks.Class(s.Attack), attacks.Window{Start: s.AttackStart, End: s.AttackEnd}, s.Seed)
		if err != nil {
			return outcome{}, err
		}
		camp = timedCampaign(camp, &lt.attack)
	}
	mon, err := core.NewCatalogMonitorWith(core.CatalogConfig{ThresholdScale: s.ThresholdScale, IncludeGroundTruth: true}, s.Assertions)
	if err != nil {
		return outcome{}, err
	}
	cfg := sim.Config{
		Context:      ctx,
		Track:        tr,
		Controller:   string(s.Controller),
		Seed:         s.Seed,
		Duration:     s.Duration,
		Campaign:     camp,
		Monitor:      mon,
		RecordFrames: s.RecordFrames,
		Localizer:    s.Localizer,
		WrapLateral:  func(c control.Lateral) control.Lateral { return timedLateral{c, lt} },
		WrapSpeed:    func(c control.Longitudinal) control.Longitudinal { return timedSpeed{c, lt} },
		Faults:       countingFaults(&lt.delivered),
	}
	if s.Guarded {
		cfg.Guard = sim.GuardConfig{Enabled: true, AssertionTrigger: true}
	}
	simStart := time.Now()
	res, err := sim.Run(cfg)
	lt.simRun.since(simStart)
	if err != nil {
		return outcome{}, err
	}
	vs := mon.Violations()
	diagStart := time.Now()
	hyps := diagnosis.Diagnose(vs)
	lt.diagnosis.since(diagStart)
	lt.total.since(start)
	lt.steps += int64(res.Steps)
	return outcome{digest(res.Steps, vs, hyps, res.Final), res.SimTime}, nil
}

// simLedger sums the layer times of traced scenarios and the cost of
// replaying their frames through the monitor.
type simLedger struct {
	mu         sync.Mutex
	lt         layerTimes
	scenarios  int
	monitor    timer // calls count replayed frames
	replays    int
	violations int64
}

// run is runTraced adding the scenario's layer times to the ledger.
func (l *simLedger) run(ctx context.Context, s adassure.Scenario) (outcome, error) {
	var lt layerTimes
	out, err := runTraced(ctx, s, &lt)
	if err != nil {
		return outcome{}, err
	}
	l.mu.Lock()
	l.lt.add(&lt)
	l.scenarios++
	l.mu.Unlock()
	return out, nil
}

// replay runs s again with its frames recorded (untimed) and times
// replaying them through a fresh catalog monitor with
// offline.Recording.MonitorWith. The monitor runs inside sim.Run, where no
// wrapper reaches it; the replay measures the same work. The replay must
// raise as many violations as the online run.
func (l *simLedger) replay(ctx context.Context, s adassure.Scenario) (outcome, error) {
	s.RecordFrames = true
	out, err := s.RunContext(ctx)
	if err != nil {
		return outcome{}, err
	}
	mon, err := core.NewCatalogMonitorWith(core.CatalogConfig{ThresholdScale: s.ThresholdScale, IncludeGroundTruth: true}, s.Assertions)
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	vs := out.Recording.MonitorWith(mon)
	ns := int64(time.Since(start))
	if len(vs) != len(out.Violations) {
		return outcome{}, fmt.Errorf("offline monitor replay raised %d violations, the online run %d", len(vs), len(out.Violations))
	}
	l.mu.Lock()
	l.monitor.add(timer{calls: int64(len(out.Recording.Frames)), ns: ns})
	l.replays++
	l.violations += int64(len(vs))
	l.mu.Unlock()
	return outcome{}, nil
}

// replayAll replays every scenario of grid once and returns the first
// error.
func (l *simLedger) replayAll(ctx context.Context, grid []adassure.Scenario) error {
	_, _, errs := runGrid(ctx, grid, l.replay)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	return nil
}

// fill writes the simulation layers' metrics into vals and returns the
// share of traced time left unattributed, with the ledger as a table. The
// simulator's own time (plant, sensors, fusion, trace append, frame build)
// is what remains of sim.Run after the timed layers and the replayed
// monitor cost; a negative remainder means the layers were over-counted
// and the ledger does not close.
func (l *simLedger) fill(vals map[string]float64) (float64, []string, error) {
	if l.scenarios == 0 || l.replays == 0 {
		return 0, nil, fmt.Errorf("simulation ledger: no traced or replayed scenarios")
	}
	n := float64(l.scenarios)
	lt := &l.lt
	vals["geom.project.calls"] = float64(lt.project.calls) / n
	vals["geom.project.ns_per_call"] = lt.project.perCall()
	vals["geom.project_range.calls"] = float64(lt.projectRange.calls) / n
	vals["geom.project_range.ns_per_call"] = lt.projectRange.perCall()
	vals["geom.curvature.calls"] = float64(lt.curvature.calls) / n
	vals["geom.curvature.ns_per_call"] = lt.curvature.perCall()
	vals["geom.other.ns"] = float64(lt.otherGeom.ns) / n
	steerSelf := float64(lt.steer.ns - lt.steerGeomNS)
	vals["control.steer.self_ns_per_call"] = ratio(steerSelf, float64(lt.steer.calls))
	vals["control.accel.ns_per_call"] = lt.accel.perCall()
	vals["attacks.apply.calls"] = float64(lt.attack.calls) / n
	vals["attacks.apply.ns"] = float64(lt.attack.ns) / n
	vals["sensors.delivered"] = float64(lt.delivered) / n
	vals["core.monitor.ns_per_frame"] = l.monitor.perCall()
	vals["core.monitor.frames"] = float64(l.monitor.calls) / float64(l.replays)
	vals["core.monitor.violations"] = float64(l.violations) / float64(l.replays)
	vals["diagnosis.ns_per_run"] = lt.diagnosis.perCall()
	vals["track.catalog.ns"] = float64(lt.catalog.ns) / n
	vals["sim.steps"] = float64(lt.steps) / n

	// Each scenario's frames were replayed once; scale the mean replay to
	// the number of traced runs.
	monitor := float64(l.monitor.ns) / float64(l.replays) * n
	inSim := []ledgerRow{
		{"geom", float64(lt.geomNS())},
		{"control.steer (self)", steerSelf},
		{"control.accel", float64(lt.accel.ns)},
		{"attacks.apply", float64(lt.attack.ns)},
		{"core.monitor (replayed)", monitor},
	}
	simSelf := float64(lt.simRun.ns)
	for _, r := range inSim {
		simSelf -= r.ns
	}
	vals["sim.self_ns_per_step"] = ratio(simSelf, float64(lt.steps))
	rows := append([]ledgerRow{{"track.catalog", float64(lt.catalog.ns)}}, inSim...)
	rows = append(rows, ledgerRow{"sim (self)", simSelf}, ledgerRow{"diagnosis", float64(lt.diagnosis.ns)})
	share, table := ledgerTable(rows, float64(lt.total.ns), n, "scenario")
	switch {
	case simSelf < 0:
		return share, table, fmt.Errorf("simulation ledger does not close: the timed layers exceed sim.Run by %.0f ns", -simSelf)
	case math.Abs(share) > ledgerTolerance:
		return share, table, fmt.Errorf("simulation ledger does not close: %.1f%% of traced time unattributed", 100*share)
	}
	return share, table, nil
}

// ledgerRow is one layer's time summed over all ops.
type ledgerRow struct {
	layer string
	ns    float64
}

// ledgerTable renders rows as time per op and share of total, followed by
// the unattributed remainder, and returns that remainder's share.
func ledgerTable(rows []ledgerRow, total, ops float64, op string) (float64, []string) {
	var table []string
	attributed := 0.0
	for _, r := range rows {
		attributed += r.ns
		table = append(table, fmt.Sprintf("  %-26s %14.0f ns/%s %6.1f%%", r.layer, ratio(r.ns, ops), op, 100*ratio(r.ns, total)))
	}
	share := ratio(total-attributed, total)
	table = append(table, fmt.Sprintf("  %-26s %14.0f ns/%s %6.1f%%", "unattributed", ratio(total-attributed, ops), op, 100*share))
	return share, table
}
