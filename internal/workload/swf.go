package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
)

// ParseSWF reads a trace in the Standard Workload Format of the
// Parallel Workloads Archive (one job per line, 18 whitespace-
// separated fields, ';' comment lines) and converts it into trace
// entries submittable to the simulated cluster. Processor counts are
// folded onto nodes of coresPerNode cores; missing fields (-1) fall
// back to sensible defaults. This lets the batch system be driven by
// real production traces in addition to synthetic workloads.
//
// A line is parsed where the scanner holds it: fields are sub-slices of
// its buffer, and what a line costs is its entry's name.
func ParseSWF(r io.Reader, coresPerNode int) ([]TraceEntry, error) {
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("workload: ParseSWF with coresPerNode %d", coresPerNode)
	}
	// A reader that knows what it holds (strings.Reader, bytes.Buffer)
	// sizes the result, so the entries are not copied from one doubling
	// to the next: 16k jobs regrow through five times their final size.
	// The shortest line a generator writes is about swfLineBytes; the
	// archive's are twice that, which over-reserves and never regrows.
	hint := 0
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len() / swfLineBytes
	}
	var out []TraceEntry             // stays nil for a trace without jobs
	owners := make(map[int64]string) // uid -> "user<uid>", built once each
	var fields [12][]byte            // the parser reads no field past the 12th
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		n := splitFields(sc.Bytes(), fields[:])
		if n == 0 || fields[0][0] == ';' {
			continue
		}
		if n < 11 {
			return nil, fmt.Errorf("workload: swf line %d: %d fields, want >= 11", lineNo, n)
		}
		get := func(i int) (int64, error) {
			// ParseInt keeps no reference to its argument, so the
			// conversion of a field of ordinary length stays off the heap.
			v, err := strconv.ParseInt(string(fields[i]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("workload: swf line %d field %d: %w", lineNo, i+1, err)
			}
			return v, nil
		}
		jobNum, err := get(0)
		if err != nil {
			return nil, err
		}
		submit, err := get(1)
		if err != nil {
			return nil, err
		}
		runSec, err := get(3)
		if err != nil {
			return nil, err
		}
		procs, err := get(4)
		if err != nil {
			return nil, err
		}
		if procs <= 0 {
			if procs, err = get(7); err != nil { // requested processors
				return nil, err
			}
		}
		reqSec, err := get(8)
		if err != nil {
			return nil, err
		}
		uid := int64(-1)
		if n > 11 {
			uid, _ = strconv.ParseInt(string(fields[11]), 10, 64)
		}

		if runSec < 0 {
			runSec = 0
		}
		if procs <= 0 {
			procs = 1
		}
		if reqSec <= 0 {
			reqSec = runSec
		}
		nodes := int((procs + int64(coresPerNode) - 1) / int64(coresPerNode))
		if nodes < 1 {
			nodes = 1
		}
		ppn := int((procs + int64(nodes) - 1) / int64(nodes))
		owner := "unknown"
		if uid >= 0 {
			var ok bool
			if owner, ok = owners[uid]; !ok {
				owner = "user" + strconv.FormatInt(uid, 10)
				owners[uid] = owner
			}
		}
		if out == nil {
			out = make([]TraceEntry, 0, hint)
		}
		var name [24]byte // "swf-" and the 20 characters of an int64
		out = append(out, TraceEntry{
			At:       time.Duration(submit) * time.Second,
			Name:     string(strconv.AppendInt(append(name[:0], "swf-"...), jobNum, 10)),
			Owner:    owner,
			Nodes:    nodes,
			PPN:      ppn,
			Runtime:  time.Duration(runSec) * time.Second,
			Walltime: time.Duration(reqSec) * time.Second,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: swf scan: %w", err)
	}
	return out, nil
}

// swfLineBytes is a low estimate of a job line's length: 18 fields of
// one to five characters and their separators.
const swfLineBytes = 48

// splitFields is strings.Fields over a byte slice without its result
// slice: it stores the line's fields — maximal runs of characters that
// are not Unicode white space — in dst until dst is full, and returns
// how many it stored.
func splitFields(line []byte, dst [][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		var space bool
		w := 1
		if c := line[i]; c < utf8.RuneSelf {
			space = c == ' ' || '\t' <= c && c <= '\r'
		} else {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst[n] = line[start:i]
				if n++; n == len(dst) {
					return n
				}
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += w
	}
	if start >= 0 {
		dst[n] = line[start:]
		n++
	}
	return n
}

// ScaleTrace compresses a trace's time axis by factor (e.g. 0.001
// turns hours of production trace into seconds of simulation),
// scaling submit offsets, runtimes, and walltime estimates alike.
func ScaleTrace(entries []TraceEntry, factor float64) []TraceEntry {
	out := make([]TraceEntry, len(entries))
	for i, e := range entries {
		e.At = time.Duration(float64(e.At) * factor)
		e.Runtime = time.Duration(float64(e.Runtime) * factor)
		e.Walltime = time.Duration(float64(e.Walltime) * factor)
		out[i] = e
	}
	return out
}
