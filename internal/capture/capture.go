// Package capture is the one on-disk format for what a run's
// observers saw (cluster.Observers opens and attaches them). A capture
// file is kind-tagged JSONL: every line is {"kind":K,"rec":R} where K
// is "span" (a trace.Event), "audit" (an audit.Event) or "scrape" (a
// telemetry.Window), and R is that package's own encoding of the
// record. Virtual time makes captures exactly reproducible, so two
// captures of the same configuration are byte-identical and a diff
// between captures isolates behavioural change. cmd/dacobs is the
// reader CLI.
package capture

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Line kinds.
const (
	KindSpan   = "span"
	KindAudit  = "audit"
	KindScrape = "scrape"
)

// MaxLine bounds one capture line; a longer line is a read error
// rather than an unbounded allocation.
const MaxLine = 16 << 20

// File is the content of one capture: the span stream, the flight
// recording and the scrape series of one run, each in recording
// order. A kind the run did not observe is empty.
type File struct {
	Spans   []trace.Event
	Audit   []audit.Event
	Windows []telemetry.Window
}

// Count reports how many lines of one kind the file holds.
func (f *File) Count(kind string) int {
	switch kind {
	case KindSpan:
		return len(f.Spans)
	case KindAudit:
		return len(f.Audit)
	case KindScrape:
		return len(f.Windows)
	}
	return 0
}

// Kinds describes which line kinds the file holds, for error
// messages: "span (812), scrape (9)", or "nothing".
func (f *File) Kinds() string {
	var parts []string
	for _, kind := range []string{KindSpan, KindAudit, KindScrape} {
		if n := f.Count(kind); n > 0 {
			parts = append(parts, fmt.Sprintf("%s (%d)", kind, n))
		}
	}
	if len(parts) == 0 {
		return "nothing"
	}
	return strings.Join(parts, ", ")
}

func writeLines[T any](enc *json.Encoder, kind string, recs []T) error {
	for i := range recs {
		line := struct {
			Kind string `json:"kind"`
			Rec  *T     `json:"rec"`
		}{kind, &recs[i]}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("capture: %s record %d: %w", kind, i, err)
		}
	}
	return nil
}

// Write writes f as JSONL: span lines, then audit lines, then scrape
// lines.
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := writeLines(enc, KindSpan, f.Spans); err != nil {
		return err
	}
	if err := writeLines(enc, KindAudit, f.Audit); err != nil {
		return err
	}
	if err := writeLines(enc, KindScrape, f.Windows); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a capture. Whitespace-only lines are skipped, so
// captures survive concatenation and manual editing; a malformed
// line, an unknown kind or a line over MaxLine is an error naming the
// line number and, where known, the record kind.
func Read(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	f := &File{}
	n := 0
	for sc.Scan() {
		n++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var line struct {
			Kind string          `json:"kind"`
			Rec  json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal(b, &line); err != nil {
			return nil, fmt.Errorf("capture: line %d: %w", n, err)
		}
		if len(line.Rec) == 0 || string(line.Rec) == "null" {
			return nil, fmt.Errorf("capture: line %d: kind %q has no rec", n, line.Kind)
		}
		var err error
		switch line.Kind {
		case KindSpan:
			var ev trace.Event
			err = json.Unmarshal(line.Rec, &ev)
			f.Spans = append(f.Spans, ev)
		case KindAudit:
			var ev audit.Event
			err = json.Unmarshal(line.Rec, &ev)
			f.Audit = append(f.Audit, ev)
		case KindScrape:
			var w telemetry.Window
			err = json.Unmarshal(line.Rec, &w)
			f.Windows = append(f.Windows, w)
		default:
			return nil, fmt.Errorf("capture: line %d: unknown kind %q (want span, audit or scrape)", n, line.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("capture: line %d: %s record: %w", n, line.Kind, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("capture: line %d: %w", n+1, err)
	}
	return f, nil
}

// Path names the capture file of one ladder point: PREFIX-<nodes>.jsonl,
// or PREFIX.jsonl for a run that is not a ladder point (nodes 0).
func Path(prefix string, nodes int) string {
	prefix = strings.TrimSuffix(prefix, ".jsonl")
	if nodes == 0 {
		return prefix + ".jsonl"
	}
	return fmt.Sprintf("%s-%d.jsonl", prefix, nodes)
}

// WriteFile writes f to path.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, f); err != nil {
		out.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return out.Close()
}

// ReadFile reads the capture at path; errors name the file.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
