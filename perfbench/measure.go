package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// metricDef describes one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. A bound is the
// share of the parent commit's value by which a metric may worsen
// before a change counts as a regression, set from the run-to-run
// spreads measured over ten seeds (README.md, "Noise and bounds").
var endToEnd = []metricDef{
	{"items_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_bytes_per_item", "B", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// repMetrics computes the end-to-end metrics of one rep. Its timings
// are scaled to a quiet host's (hostspeed.go).
func repMetrics(r repResult) map[string]float64 {
	items := float64(r.sum(func(c cellResult) int64 { return c.Items }))
	run := runNs(r)
	if items == 0 || run == 0 {
		return nil
	}
	return map[string]float64{
		"items_per_s":          items / (run / 1e9),
		"peak_rss_mb":          float64(r.MaxRSSKB) / 1024,
		"alloc_bytes_per_item": float64(r.sum(func(c cellResult) int64 { return int64(c.AllocBytes) })) / items,
		"setup_s":              r.hostScale() * float64(r.sum(func(c cellResult) int64 { return c.SetupNs })) / 1e9,
	}
}

// timings are the end-to-end metrics other tenants of the host can
// worsen: contention only ever slows a rep down, so these report the
// median of the faster half of the reps, the part of the run the
// contention missed.
var timings = map[string]bool{"items_per_s": true, "setup_s": true}

// summary is one metric over the reps of a run. Value is what the run
// reports: the median, or for timings the median of the faster half.
type summary struct {
	metricDef
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(reps []repResult) []summary {
	var out []summary
	for _, m := range endToEnd {
		s := summary{metricDef: m}
		for _, r := range reps {
			if v, ok := repMetrics(r)[m.Name]; ok {
				s.Values = append(s.Values, v)
			}
		}
		s.N = len(s.Values)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		s.Value = s.Median
		if timings[m.Name] {
			s.Value = fasterHalfMedian(s.Values, m.Better)
		}
		out = append(out, s)
	}
	return out
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles (exclusive), the one the
// benchmark's spread check uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p*float64(len(s)+1) - 1
		if h <= 0 {
			return s[0]
		}
		if h >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		i := int(h)
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// fasterHalfMedian is the median of the better half of v, the middle
// value included when len(v) is odd.
func fasterHalfMedian(v []float64, better string) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	half := (len(s) + 1) / 2
	if better == "higher" {
		return median(s[len(s)-half:])
	}
	return median(s[:half])
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

//go:embed pins.json
var pinsJSON []byte

// pinSet holds the per-cell digests at the pinned seed, for the short
// and the full sizes. A change that only makes the simulator faster
// must leave them unchanged.
type pinSet struct {
	Seed  int64                        `json:"seed"`
	Short map[string]map[string]string `json:"short"`
	Full  map[string]map[string]string `json:"full"`
}

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// want returns the pinned digests of a workload's cells, or nil when
// none are pinned for this seed and size.
func (p pinSet) want(w *workloadDef, seed int64, short bool) map[string]string {
	if seed != p.Seed {
		return nil
	}
	if short {
		return p.Short[w.name]
	}
	return p.Full[w.name]
}

// tally counts attempted and failed cells. A cell fails when it errors,
// breaks an invariant, or its digest differs from the pin or from the
// run's first rep.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(label string, r repResult, want map[string]string) {
	t.attempted += len(r.Cells)
	for _, c := range r.Cells {
		switch {
		case c.Err != "":
			t.fail("%s %s: %s", label, c.Name, c.Err)
		case want != nil && want[c.Name] != c.Digest:
			t.fail("%s %s: digest %s, want %s", label, c.Name, c.Digest, want[c.Name])
		}
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// cellDigests maps cell names to digests.
func cellDigests(r repResult) map[string]string {
	m := map[string]string{}
	for _, c := range r.Cells {
		m[c.Name] = c.Digest
	}
	return m
}

// session runs reps in child processes of this binary.
type session struct {
	self string // this binary
	work string // scratch directory inside the checkout
	pins pinSet
}

// rep runs one rep of a workload in a child process, so peak memory
// and GC state are the rep's own.
func (s *session) rep(ctx context.Context, w *workloadDef, seed int64, short bool, input string, opt repOptions) (repResult, error) {
	var r repResult
	cmd := exec.CommandContext(ctx, s.self, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-short="+strconv.FormatBool(short), "-input", input,
		"-traced="+strconv.FormatBool(opt.traced), "-workers", strconv.Itoa(opt.workers))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s rep: %v: %s", w.name, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("%s rep output: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSKB = ru.Maxrss
	}
	return r, nil
}

// inputs prepares a workload's shared inputs in a fresh directory.
func (s *session) inputs(w *workloadDef, seed int64, short bool) (string, error) {
	dir, err := os.MkdirTemp(s.work, w.name+"-")
	if err != nil {
		return "", err
	}
	if w.prepare != nil {
		if err := w.prepare(seed, short, dir); err != nil {
			return dir, err
		}
	}
	return dir, nil
}

// checkPins runs the short size at the pinned seed and compares every
// cell with its pin, so every run checks outputs against a known
// answer whatever seed it measures.
func (s *session) checkPins(ctx context.Context, w *workloadDef, t *tally) error {
	dir, err := s.inputs(w, s.pins.Seed, true)
	if err != nil {
		return err
	}
	r, err := s.rep(ctx, w, s.pins.Seed, true, dir, repOptions{})
	if err != nil {
		return err
	}
	want := s.pins.want(w, s.pins.Seed, true)
	if want == nil {
		t.fail("%s: no pinned digests", w.name)
	}
	t.add("pin", r, want)
	return nil
}

// run is one workload measured at one seed: its untraced reps and,
// when traced, the per-layer measurements.
type run struct {
	w      *workloadDef
	seed   int64
	input  string
	t      tally
	reps   []repResult
	traced *repResult
	w2     *repResult
	want   map[string]string
}

func (s *session) newRun(ctx context.Context, w *workloadDef, seed int64) (*run, error) {
	r := &run{w: w, seed: seed}
	if err := s.checkPins(ctx, w, &r.t); err != nil {
		return nil, err
	}
	dir, err := s.inputs(w, seed, false)
	if err != nil {
		return nil, err
	}
	r.input = dir
	r.want = s.pins.want(w, seed, false)
	return r, nil
}

// measure runs one untraced rep and records it.
func (s *session) measure(ctx context.Context, r *run) (time.Duration, error) {
	t0 := time.Now()
	rep, err := s.rep(ctx, r.w, r.seed, false, r.input, repOptions{})
	if err != nil {
		return 0, err
	}
	r.record("rep "+strconv.Itoa(len(r.reps)+1), rep)
	r.reps = append(r.reps, rep)
	return time.Since(t0), nil
}

// record tallies a rep against the pins or, without pins, against the
// run's first rep.
func (r *run) record(label string, rep repResult) {
	if r.want == nil && len(r.reps) > 0 {
		r.want = cellDigests(r.reps[0])
	}
	r.t.add(label, rep, r.want)
}

// trace runs the traced rep and the two-worker rep.
func (s *session) trace(ctx context.Context, r *run) error {
	tr, err := s.rep(ctx, r.w, r.seed, false, r.input, repOptions{traced: true})
	if err != nil {
		return err
	}
	r.record("traced rep", tr)
	r.traced = &tr
	var cfg sim.Config
	if setWorkers(&cfg, 2) {
		w2, err := s.rep(ctx, r.w, r.seed, false, r.input, repOptions{workers: 2})
		if err != nil {
			return err
		}
		r.record("workers=2 rep", w2)
		r.w2 = &w2
	}
	return nil
}

// digest combines the cell digests of the run's first rep.
func (r *run) digest() string {
	if len(r.reps) == 0 {
		return ""
	}
	h := sha256.New()
	for _, c := range r.reps[0].Cells {
		fmt.Fprintln(h, c.Digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// runNs is the rep's run time, scaled to a quiet host's.
func runNs(r repResult) float64 {
	return r.hostScale() * float64(r.sum(func(c cellResult) int64 { return c.RunNs }))
}

// cellSeconds is the median run time of each cell over the reps,
// scaled to a quiet host's.
func (r *run) cellSeconds() map[string]float64 {
	out := map[string]float64{}
	if len(r.reps) == 0 {
		return out
	}
	for i, c := range r.reps[0].Cells {
		var v []float64
		for _, rep := range r.reps {
			if i < len(rep.Cells) {
				v = append(v, rep.hostScale()*float64(rep.Cells[i].RunNs)/1e9)
			}
		}
		out[c.Name] = median(v)
	}
	return out
}

// kernelMs is the median reference kernel time over the reps.
func (r *run) kernelMs() float64 {
	var v []float64
	for _, rep := range r.reps {
		v = append(v, float64(rep.KernelNs)/1e6)
	}
	return median(v)
}

func newSession(work string) (*session, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(abs, "session-")
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &session{self: self, work: dir, pins: pins}, nil
}

func (s *session) close() { os.RemoveAll(s.work) }
