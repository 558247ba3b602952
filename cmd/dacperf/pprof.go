package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A CPU profile is a gzipped profile.proto. The split below needs four
// of its tables — sample, location, function, string_table — so this
// file walks the wire format directly instead of adding a module
// dependency for the full decoder.

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("pprof: truncated message")

// field is one decoded protobuf field: a varint value or, for
// length-delimited fields, the payload bytes.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// nextField decodes the field at the head of b and returns the rest.
func nextField(b []byte) (field, []byte, error) {
	key, b, err := readVarint(b)
	if err != nil {
		return field{}, nil, err
	}
	f := field{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = readVarint(b)
	case 1:
		if len(b) < 8 {
			return field{}, nil, errTruncated
		}
		b = b[8:]
	case 2:
		var n uint64
		if n, b, err = readVarint(b); err == nil {
			if n > uint64(len(b)) {
				return field{}, nil, errTruncated
			}
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return field{}, nil, errTruncated
		}
		b = b[4:]
	default:
		return field{}, nil, fmt.Errorf("pprof: wire type %d", f.wire)
	}
	return f, b, err
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f field, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// stackSample is one profile sample: its call stack as function
// names, innermost frame first (inlined frames expanded), and the CPU
// nanoseconds it stands for.
type stackSample struct {
	stack []string
	ns    int64
}

// decodeProfile unpacks a gzipped CPU profile into its samples and
// the CPU nanoseconds the profile holds in all, summed as the sample
// records are read. The value taken is the last of each sample's
// values, which for Go's CPU profiles is cpu/nanoseconds (the first is
// the sample count).
func decodeProfile(gz []byte) (out []stackSample, totalNs int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	for b := raw; len(b) > 0; {
		var f field
		if f, b, err = nextField(b); err != nil {
			return nil, 0, err
		}
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profSample:
			var s rawSample
			var vals []uint64
			for mb := f.data; len(mb) > 0; {
				var mf field
				if mf, mb, err = nextField(mb); err != nil {
					return nil, 0, err
				}
				switch mf.num {
				case sampleLocationID:
					s.locs, err = repeatedVarints(mf, s.locs)
				case sampleValue:
					vals, err = repeatedVarints(mf, vals)
				}
				if err != nil {
					return nil, 0, err
				}
			}
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1])
				totalNs += s.ns
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			for mb := f.data; len(mb) > 0; {
				var mf field
				if mf, mb, err = nextField(mb); err != nil {
					return nil, 0, err
				}
				switch mf.num {
				case locationID:
					id = mf.val
				case locationLine:
					for lb := mf.data; len(lb) > 0; {
						var lf field
						if lf, lb, err = nextField(lb); err != nil {
							return nil, 0, err
						}
						if lf.num == lineFunctionID {
							fns = append(fns, lf.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			for mb := f.data; len(mb) > 0; {
				var mf field
				if mf, mb, err = nextField(mb); err != nil {
					return nil, 0, err
				}
				switch mf.num {
				case functionID:
					id = mf.val
				case functionName:
					name = mf.val
				}
			}
			funcName[id] = name
		}
	}

	out = make([]stackSample, len(samples))
	for i, s := range samples {
		out[i].ns = s.ns
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					out[i].stack = append(out[i].stack, strs[idx])
				}
			}
		}
	}
	return out, totalNs, nil
}

// simLayers are the simulator packages with a row of their own in the
// per-layer CPU split; cpuLayers adds dacperf itself and the two host
// rows for samples with no repository frame on the stack, in report
// order.
var (
	simLayers = []string{
		"sim", "netsim", "pbs", "maui", "mpi", "dac", "service", "workload",
		"cluster", "telemetry", "audit", "trace",
	}
	cpuLayers = append(append([]string(nil), simLayers...), "bench", "host.gc", "host.runtime")
)

// gcRoots mark a stack as collector work when no repository frame is
// on it: the background mark workers, the sweeper and the scavenger.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination"}

// layerOf charges a stack to the innermost frame that belongs to one
// of the listed layers. Helper packages without a row of their own
// (metrics under trace, gpusim under dac) fall through to the layer
// that called them, so every sample lands in exactly one row.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/cmd/dacperf.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		if pkg, _, _ := strings.Cut(rest, "."); slices.Contains(simLayers, pkg) {
			return pkg
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "host.gc"
			}
		}
	}
	return "host.runtime"
}

// cpuSplit sums a profile's CPU nanoseconds per layer.
func cpuSplit(samples []stackSample) map[string]int64 {
	perLayer := make(map[string]int64, len(cpuLayers))
	for _, s := range samples {
		perLayer[layerOf(s.stack)] += s.ns
	}
	return perLayer
}
