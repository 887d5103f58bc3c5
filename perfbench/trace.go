package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed interval of a traced rep. Set-up and run spans of
// each cell are children of the rep span; a run span carries the
// timing Source's counters instead of one span per Next call.
type span struct {
	Name     string           `json:"name"`
	Parent   string           `json:"parent,omitempty"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// recorder times the layer boundaries of a rep and, when on, keeps
// them as spans in memory until the rep ends, and profiles the runs.
type recorder struct {
	on        bool
	t0        time.Time
	spans     []span
	profileNs map[string]int64 // CPU time per layer over the profiled runs
}

type mark struct {
	name  string
	start time.Time
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), profileNs: map[string]int64{}}
}

// profileHz is the profiling rate. The default 100 Hz leaves too few
// samples in a one-second rep to resolve the small layers; at 500 Hz
// the kernel dropped about half of them.
const profileHz = 250

// profile runs fn, under the CPU profiler when the recorder is on, and
// adds the CPU time each layer took to profileNs. Only runs are
// profiled; set-up has its own metric.
func (r *recorder) profile(fn func()) error {
	if !r.on {
		fn()
		return nil
	}
	var buf bytes.Buffer
	// Setting the rate first is the way to profile above 100 Hz;
	// StartCPUProfile then warns on stderr and keeps it.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	byLayer, err := profileByLayer(buf.Bytes())
	for l, ns := range byLayer {
		r.profileNs[l] += ns
	}
	return err
}

func (r *recorder) begin(name string) mark { return mark{name, time.Now()} }

// end closes the interval m opened and returns its length in ns.
func (r *recorder) end(m mark, counters map[string]int64) int64 {
	now := time.Now()
	if r.on {
		r.spans = append(r.spans, span{Name: m.name, Parent: "rep",
			StartNs: int64(m.start.Sub(r.t0)), EndNs: int64(now.Sub(r.t0)), Counters: counters})
	}
	return int64(now.Sub(m.start))
}

// layers are the packages under internal/ the simulator is built from;
// a CPU sample belongs to the innermost of them on its stack.
var layers = []string{"des", "network", "mesh", "alloc", "sched", "workload", "sim", "stats"}

// runtimeLayer collects samples with no layer frame: GC workers, the
// scheduler and the benchmark's own code.
const runtimeLayer = "runtime"

// profiledLayers are the buckets a profile is split into.
var profiledLayers = append(layers[:len(layers):len(layers)], runtimeLayer)

// layerOf names the layer a function belongs to, or "" for none.
func layerOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// profileByLayer decodes a gzipped pprof CPU profile and charges each
// sample's CPU time to the innermost layer frame on its stack.
func profileByLayer(gz []byte) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		out[p.layerOfStack(s.locations)] += s.values[vi]
	}
	return out, nil
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			if l := layerOf(p.str(p.functions[fn])); l != "" {
				return l
			}
		}
	}
	return runtimeLayer
}

// profile holds the parts of a pprof profile.proto message the layer
// attribution reads. The module has no third-party dependencies, so
// the message is decoded here from the protobuf wire format.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(f field) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(f.data, func(g field) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = int64(g.v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := eachField(f.data, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = g.appendVarints(s.locations)
				case 2:
					var vs []uint64
					vs, err = g.appendVarints(nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	return p, err
}

// field is one protobuf field: a varint value (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are
// skipped; the profile messages read here use none.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// appendVarints appends a repeated varint field, packed or not.
func (f field) appendVarints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if f.wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
