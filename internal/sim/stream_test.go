package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
)

// writeStreamTestTrace materializes a small synthetic trace file the
// streaming/materialized pipelines can both consume.
func writeStreamTestTrace(t *testing.T, jobs int, seed int64) string {
	t.Helper()
	spec := workload.DefaultParagon()
	spec.Jobs = jobs
	path := filepath.Join(t.TempDir(), "stream.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.WriteTraceStream(f, workload.NewParagonSource(spec, seed), false); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingTraceMatchesMaterialized is the PR's acceptance gate:
// the streaming trace pipeline (ScanTrace stat pass + chunked
// TraceSource + Scaled wrapper) and the materialized pipeline
// (ReadTrace + MeanInterarrival + ScaleArrivals + SliceSource) drive
// bit-identical runs — Result compares == — across allocation
// strategies, schedulers, and both topologies.
func TestStreamingTraceMatchesMaterialized(t *testing.T) {
	path := writeStreamTestTrace(t, 400, 31)
	const load = 0.6

	for _, topo := range []string{"mesh", "torus"} {
		for _, strat := range []string{"GABL", "BestFit", "MBS", "Paging(0)"} {
			for _, sch := range []string{"FCFS", "SSD"} {
				cfg := DefaultConfig()
				cfg.Strategy = strat
				cfg.Scheduler = sch
				cfg.MaxCompleted = 150
				cfg.WarmupJobs = 20
				cfg.Seed = 7
				if topo == "torus" {
					cfg.Network.Topology = network.TorusTopology
				}

				tf, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				jobs, err := workload.ReadTrace(tf, cfg.MeshW, cfg.MeshL, 5, stats.NewStream(99))
				tf.Close()
				if err != nil {
					t.Fatal(err)
				}
				f := (1 / load) / workload.MeanInterarrival(jobs)
				mat := workload.NewSliceSource("trace", workload.ScaleArrivals(jobs, f))
				want, err := Run(cfg, mat)
				if err != nil {
					t.Fatalf("%s/%s/%s materialized: %v", topo, strat, sch, err)
				}

				st, err := workload.ScanTraceFile(path, cfg.MeshW, cfg.MeshL, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Ordered {
					t.Fatal("generator trace scanned as unordered")
				}
				ts, err := workload.OpenTraceSource(path, cfg.MeshW, cfg.MeshL, 5, stats.NewStream(99), 0)
				if err != nil {
					t.Fatal(err)
				}
				f2 := (1 / load) / st.MeanInterarrival()
				got, err := Run(cfg, workload.NewScaled(ts, f2))
				if err != nil {
					t.Fatalf("%s/%s/%s streaming: %v", topo, strat, sch, err)
				}

				if got != want {
					t.Errorf("%s/%s/%s: streaming result differs from materialized:\n  stream %+v\n  slice  %+v",
						topo, strat, sch, got, want)
				}
			}
		}
	}
}

// TestStreamingStochasticMatchesCollected checks the equivalence for
// an endless generator on a 3D mesh: running the stream directly
// equals collecting the same seed's jobs into a slice first.
func TestStreamingStochasticMatchesCollected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshL, cfg.MeshH = 8, 8, 4
	cfg.MaxCompleted = 120
	cfg.WarmupJobs = 10
	cfg.Seed = 3

	mk := func() workload.Source {
		return workload.NewStochastic3D(stats.NewStream(41), 8, 8, 4, workload.UniformSides, 0.002, 5)
	}
	want, err := Run(cfg, workload.NewSliceSource("stoch", workload.Collect(mk(), 500)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streamed stochastic run differs from collected:\n  stream %+v\n  slice  %+v", got, want)
	}
}

// TestDurationStopsRun checks the time bound ends the run at
// StartTime+Duration even though the source is effectively endless.
func TestDurationStopsRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCompleted = 0 // no job bound: time is the only stopping rule
	cfg.Duration = 50000
	cfg.Seed = 1
	src := workload.NewAllocStress3D(stats.NewStream(5), 16, 22, 1, 0.01, 400)
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("time-bounded run completed no jobs")
	}
	if got := float64(res.SimTime); got < 50000 || got > 51000 {
		t.Fatalf("run ended at %v, want just past Duration 50000", got)
	}
}

// TestWarmStartWindow checks a warm start (StartTime with shifted
// arrivals) reproduces the cold run's measured statistics: the window
// moves, the physics inside it does not. Equality is to relative
// rounding tolerance, not bitwise — event times live at a larger
// absolute magnitude under the shift, so the float additions round
// differently in the last couple of bits.
func TestWarmStartWindow(t *testing.T) {
	mk := func() workload.Source {
		return workload.NewAllocStress3D(stats.NewStream(9), 16, 22, 1, 0.01, 400)
	}
	cfg := DefaultConfig()
	cfg.MaxCompleted = 200
	cfg.Seed = 2
	cold, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}

	const dt = 1e6
	cfg.StartTime = dt
	warm, err := Run(cfg, workload.NewShifted(mk(), dt))
	if err != nil {
		t.Fatal(err)
	}

	close := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		scale := b
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		return d <= 1e-9*scale
	}
	if warm.Completed != cold.Completed ||
		!close(warm.MeanTurnaround, cold.MeanTurnaround) ||
		!close(warm.MeanWait, cold.MeanWait) ||
		!close(warm.Utilization, cold.Utilization) ||
		!close(warm.P95Turnaround, cold.P95Turnaround) {
		t.Errorf("warm start changed the measured window:\n  cold %+v\n  warm %+v", cold, warm)
	}
	if got, want := float64(warm.SimTime), float64(cold.SimTime)+dt; !close(got, want) {
		t.Errorf("warm SimTime %v, want cold+dt %v", got, want)
	}
}

// TestStreamSourceErrorFailsRun checks a trace stream that dies
// mid-run (malformed record after valid ones) surfaces as a Run error
// rather than a silently truncated result.
func TestStreamSourceErrorFailsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("1.0 4 10.0\n2.0 4 10.0\nbogus 4 10.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := workload.OpenTraceSource(path, 16, 22, 5, stats.NewStream(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCompleted = 0
	if _, err := Run(cfg, src); err == nil || !strings.Contains(err.Error(), "bad arrival") {
		t.Fatalf("run over a corrupt stream returned %v, want the parse error", err)
	}
}

// TestTimelineEmission checks the periodic snapshot channel: row
// count, header, monotone time column, and the JSON variant.
func TestTimelineEmission(t *testing.T) {
	run := func(format string, buf *bytes.Buffer) Result {
		cfg := DefaultConfig()
		cfg.MaxCompleted = 0
		cfg.Duration = 100000
		cfg.Seed = 4
		cfg.Timeline = &TimelineConfig{Interval: 10000, W: buf, Format: format}
		res, err := Run(cfg, workload.NewAllocStress3D(stats.NewStream(6), 16, 22, 1, 0.01, 400))
		if err != nil {
			t.Fatalf("%s run: %v", format, err)
		}
		return res
	}

	var csv bytes.Buffer
	run(TimelineCSV, &csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != strings.TrimSpace(timelineHeader) {
		t.Fatalf("csv header %q", lines[0])
	}
	// 10 intervals fit in the window; the final tick at t=Duration may
	// race the finish event, so accept 9 or 10 rows.
	if n := len(lines) - 1; n < 9 || n > 10 {
		t.Fatalf("csv emitted %d rows, want 9-10", n)
	}
	prev := -1.0
	for _, ln := range lines[1:] {
		var row TimelineRow
		cols := strings.Split(ln, ",")
		if len(cols) != 9 {
			t.Fatalf("csv row %q has %d columns, want 9", ln, len(cols))
		}
		if _, err := parseFloatStrict(cols[0], &row.Time); err != nil {
			t.Fatalf("csv time column %q: %v", cols[0], err)
		}
		if row.Time <= prev {
			t.Fatalf("timeline time went backwards: %v after %v", row.Time, prev)
		}
		prev = row.Time
	}

	var jsonl bytes.Buffer
	run(TimelineJSON, &jsonl)
	for _, ln := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var row TimelineRow
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("jsonl row %q: %v", ln, err)
		}
		if row.UtilAvg < 0 || row.UtilAvg > 1 {
			t.Fatalf("jsonl row utilization %v out of range", row.UtilAvg)
		}
	}
}

// TestTimelineShowsDiurnalCycle is the diurnal-modulator smoke: a
// day/night-warped workload driven through the timeline channel must
// show the cycle in the snapshots — intervals covering the rising
// (day) half of each period complete more jobs than the falling
// (night) half. Snapshots land every half period, so the per-interval
// completion deltas alternate day, night, day, night, ...
func TestTimelineShowsDiurnalCycle(t *testing.T) {
	const (
		period   = 20000.0
		duration = 100000.0
	)
	cfg := DefaultConfig()
	cfg.MaxCompleted = 0
	cfg.Duration = duration
	cfg.Seed = 4
	var buf bytes.Buffer
	cfg.Timeline = &TimelineConfig{Interval: period / 2, W: &buf, Format: TimelineJSON}
	src := workload.NewDiurnal(
		workload.NewAllocStress3D(stats.NewStream(6), 16, 22, 1, 0.01, 400), period, 0.9)
	if _, err := Run(cfg, src); err != nil {
		t.Fatalf("diurnal run: %v", err)
	}
	day, night, prev := 0, 0, 0
	for i, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var row TimelineRow
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("jsonl row %q: %v", ln, err)
		}
		delta := row.Completed - prev
		prev = row.Completed
		if i%2 == 0 {
			day += delta
		} else {
			night += delta
		}
	}
	if day+night == 0 {
		t.Fatal("timeline recorded no completions")
	}
	if day <= night {
		t.Fatalf("day-half completions %d not above night-half %d; diurnal cycle invisible", day, night)
	}
}

// parseFloatStrict is a tiny helper so the CSV check doesn't need
// strconv import gymnastics in the assertions above.
func parseFloatStrict(s string, out *float64) (float64, error) {
	var v float64
	err := json.Unmarshal([]byte(s), &v)
	*out = v
	return v, err
}

// TestNewRejectsNonFiniteTimes: NaN passes every "< 0" check, so a NaN
// Duration, StartTime or ThinkMean used to run as if unset; New must
// reject it, and an infinite one, naming the field.
func TestNewRejectsNonFiniteTimes(t *testing.T) {
	src := workload.NewAllocStress3D(stats.NewStream(1), 16, 22, 1, 0.01, 400)
	set := map[string]func(*Config, float64){
		"Duration":  func(c *Config, v float64) { c.Duration = v },
		"StartTime": func(c *Config, v float64) { c.StartTime = v },
		"ThinkMean": func(c *Config, v float64) { c.ThinkMean = v },
	}
	for field, mut := range set {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			mut(&cfg, v)
			_, err := New(cfg, src)
			if want := fmt.Sprintf("sim: %s %v is not finite", field, v); err == nil || err.Error() != want {
				t.Errorf("%s = %v: New error %v, want %q", field, v, err, want)
			}
		}
	}
}

// TestNewRejectsNonFiniteParameters: NaN passes every "< 0" check, so
// a NaN router delay or outage time used to reach the event queue and
// panic there, a NaN repair time or outage duration made failures
// permanent, and an infinite router delay ran without completing a
// job. New must reject each, naming the field.
func TestNewRejectsNonFiniteParameters(t *testing.T) {
	src := workload.NewAllocStress3D(stats.NewStream(1), 16, 22, 1, 0.01, 400)
	nan, inf := math.NaN(), math.Inf(1)
	outage := func(at, duration float64) *FaultPlan {
		return &FaultPlan{Outages: []Outage{{At: at, Duration: duration, Region: mesh.Sub(0, 0, 1, 1)}}}
	}
	linkOutage := func(at, duration float64) *FaultPlan {
		return &FaultPlan{Links: &LinkPlan{Outages: []LinkOutage{
			{At: at, Duration: duration, Links: []LinkRef{{X: 1, Y: 0, Dir: "East"}}},
		}}}
	}
	for _, c := range []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Network.RouterDelay = nan }, "network: RouterDelay NaN is not finite"},
		{func(c *Config) { c.Network.RouterDelay = inf }, "network: RouterDelay +Inf is not finite"},
		{func(c *Config) { c.Network.RetryBackoff = nan }, "network: RetryBackoff NaN is not finite"},
		{func(c *Config) { c.Network.RetryDeadline = nan }, "network: RetryDeadline NaN is not finite"},
		{func(c *Config) { c.Faults = &FaultPlan{MTBF: nan} }, "sim: FaultPlan.MTBF NaN is not finite"},
		{func(c *Config) { c.Faults = &FaultPlan{MTBF: inf} }, "sim: FaultPlan.MTBF +Inf is not finite"},
		{func(c *Config) { c.Faults = &FaultPlan{MTBF: 1e5, MTTR: nan} }, "sim: FaultPlan.MTTR NaN is not finite"},
		{func(c *Config) { c.Faults = outage(nan, 100) }, "sim: FaultPlan.Outages[0].At NaN is not finite"},
		{func(c *Config) { c.Faults = outage(10, nan) }, "sim: FaultPlan.Outages[0].Duration NaN is not finite"},
		{func(c *Config) { c.Faults = outage(10, -1) }, "sim: negative FaultPlan.Outages[0].Duration -1"},
		{func(c *Config) { c.Faults = &FaultPlan{Links: &LinkPlan{MTBF: inf}} }, "sim: LinkPlan.MTBF +Inf is not finite"},
		{func(c *Config) { c.Faults = &FaultPlan{Links: &LinkPlan{MTBF: 1e5, MTTR: nan}} }, "sim: LinkPlan.MTTR NaN is not finite"},
		{func(c *Config) { c.Faults = linkOutage(nan, 100) }, "sim: LinkPlan.Outages[0].At NaN is not finite"},
		{func(c *Config) { c.Faults = linkOutage(10, nan) }, "sim: LinkPlan.Outages[0].Duration NaN is not finite"},
		{func(c *Config) {
			c.Duration = 100
			c.Timeline = &TimelineConfig{Interval: nan, W: &bytes.Buffer{}}
		}, "sim: Timeline.Interval must be positive and finite, got NaN"},
		{func(c *Config) {
			c.Duration = 100
			c.Timeline = &TimelineConfig{Interval: inf, W: &bytes.Buffer{}}
		}, "sim: Timeline.Interval must be positive and finite, got +Inf"},
	} {
		cfg := DefaultConfig()
		c.mut(&cfg)
		if _, err := New(cfg, src); err == nil || err.Error() != c.want {
			t.Errorf("New error %v, want %q", err, c.want)
		}
	}
}

// TestTimelineAndWindowValidation checks New rejects inconsistent
// time-window configurations up front.
func TestTimelineAndWindowValidation(t *testing.T) {
	src := workload.NewAllocStress3D(stats.NewStream(1), 16, 22, 1, 0.01, 400)
	cases := map[string]func(*Config){
		"negative duration":         func(c *Config) { c.Duration = -1 },
		"negative start":            func(c *Config) { c.StartTime = -1 },
		"timeline without duration": func(c *Config) { c.Timeline = &TimelineConfig{Interval: 10, W: &bytes.Buffer{}} },
		"timeline zero interval":    func(c *Config) { c.Duration = 100; c.Timeline = &TimelineConfig{W: &bytes.Buffer{}} },
		"timeline nil writer":       func(c *Config) { c.Duration = 100; c.Timeline = &TimelineConfig{Interval: 10} },
		"timeline bad format": func(c *Config) {
			c.Duration = 100
			c.Timeline = &TimelineConfig{Interval: 10, W: &bytes.Buffer{}, Format: "xml"}
		},
	}
	for name, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg, src); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}
