package sim

// Periodic timeline emission: with Config.Timeline set, the simulator
// snapshots its running metrics every Interval of simulated time and
// writes one row per snapshot — CSV (default) or JSON lines — to the
// configured writer. This is the observability channel for the
// time-compressed long-horizon runs (meshsim -duration/-time-scale):
// diurnal load waves, queue growth, and long-term fragmentation show
// up in the timeline where end-of-run means would average them away.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Timeline formats. The zero value means CSV.
const (
	TimelineCSV  = "csv"
	TimelineJSON = "json" // one JSON object per line (JSONL)
)

// TimelineConfig asks the simulator to emit periodic metric snapshots.
type TimelineConfig struct {
	// Interval is the simulated time between snapshots; must be
	// positive.
	Interval float64
	// W receives the rows. The simulator never closes or flushes it;
	// wrap files in a bufio.Writer and flush after Run.
	W io.Writer
	// Format is TimelineCSV (default when empty) or TimelineJSON.
	Format string
}

// validate rejects configurations that could not emit correctly. The
// Duration requirement keeps the self-re-arming snapshot chain from
// holding the event loop open forever on an unbounded run.
func (t *TimelineConfig) validate(duration float64) error {
	if t == nil {
		return nil
	}
	if !(t.Interval > 0) || math.IsInf(t.Interval, 1) {
		// NaN fails the comparison too.
		return fmt.Errorf("sim: Timeline.Interval must be positive and finite, got %v", t.Interval)
	}
	if t.W == nil {
		return fmt.Errorf("sim: timeline has no writer")
	}
	switch t.Format {
	case "", TimelineCSV, TimelineJSON:
	default:
		return fmt.Errorf("sim: unknown timeline format %q (want %q or %q)", t.Format, TimelineCSV, TimelineJSON)
	}
	if duration <= 0 {
		return fmt.Errorf("sim: timeline requires Duration > 0 (the snapshot chain needs a time bound)")
	}
	return nil
}

// TimelineRow is one emitted snapshot. CSV columns appear in field
// order; the JSON form uses the struct tags.
type TimelineRow struct {
	// Time is the simulated time of the snapshot.
	Time float64 `json:"time"`
	// Completed counts all job completions so far (including warmup —
	// the timeline watches the system, not the measurement window).
	Completed int `json:"completed"`
	// Throughput is completions per simulated time unit over the last
	// interval.
	Throughput float64 `json:"throughput"`
	// QueueLen is the instantaneous queue depth.
	QueueLen int `json:"queue_len"`
	// UtilInst is the instantaneous utilization (allocated processors
	// over mesh size).
	UtilInst float64 `json:"util_inst"`
	// UtilAvg is the running time-averaged utilization since
	// StartTime.
	UtilAvg float64 `json:"util_avg"`
	// P95Turnaround and P95Wait are the running streaming quantile
	// estimates (P²), 0 until the first measured completion.
	P95Turnaround float64 `json:"p95_turnaround"`
	P95Wait       float64 `json:"p95_wait"`
	// Failures counts processor failures so far (0 on fault-free
	// runs).
	Failures int64 `json:"failures"`
}

// timelineHeader is the CSV header, in TimelineRow field order.
const timelineHeader = "time,completed,throughput,queue_len,util_inst,util_avg,p95_turnaround,p95_wait,failures\n"

// startTimeline writes the CSV header and arms the first snapshot at
// StartTime + Interval.
func (s *Simulator) startTimeline() {
	s.timelineFn = func(any) { s.timelineTick() }
	if s.cfg.Timeline.Format != TimelineJSON {
		if _, err := io.WriteString(s.cfg.Timeline.W, timelineHeader); err != nil {
			s.timelineErr = fmt.Errorf("sim: timeline write: %w", err)
			s.finish()
			return
		}
	}
	s.eng.AtEvent(s.cfg.StartTime+s.cfg.Timeline.Interval, s.timelineFn, nil)
}

// sanitize maps the quantile estimators' no-data NaN to 0 so every
// row is valid CSV and valid JSON.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// timelineTick emits one snapshot and re-arms the chain. It advances
// the utilization and queue integrals to now first, so the running
// averages include the interval just ended.
func (s *Simulator) timelineTick() {
	if s.done {
		return
	}
	now := s.eng.Now()
	s.busyInt.Observe(now, float64(s.mesh.AllocatedCount()))
	s.queueInt.Observe(now, float64(s.queue.Len()))
	row := TimelineRow{
		Time:          float64(now),
		Completed:     s.completed,
		Throughput:    float64(s.completed-s.timelinePrev) / s.cfg.Timeline.Interval,
		QueueLen:      s.queue.Len(),
		UtilInst:      float64(s.mesh.AllocatedCount()) / float64(s.mesh.Size()),
		UtilAvg:       s.busyInt.Mean() / float64(s.mesh.Size()),
		P95Turnaround: sanitize(s.turnP95.Value()),
		P95Wait:       sanitize(s.waitP95.Value()),
		Failures:      s.failures,
	}
	s.timelinePrev = s.completed
	if err := writeTimelineRow(s.cfg.Timeline.W, s.cfg.Timeline.Format, row); err != nil {
		s.timelineErr = fmt.Errorf("sim: timeline write: %w", err)
		s.finish()
		return
	}
	s.eng.ScheduleEvent(s.cfg.Timeline.Interval, s.timelineFn, nil)
}

// writeTimelineRow renders one row in the configured format.
func writeTimelineRow(w io.Writer, format string, row TimelineRow) error {
	if format == TimelineJSON {
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	_, err := fmt.Fprintf(w, "%g,%d,%g,%d,%g,%g,%g,%g,%d\n",
		row.Time, row.Completed, row.Throughput, row.QueueLen,
		row.UtilInst, row.UtilAvg, row.P95Turnaround, row.P95Wait, row.Failures)
	return err
}
