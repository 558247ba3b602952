package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Report is the file -out writes and -compare reads.
type Report struct {
	Schema    int              `json:"schema"`
	Seed      uint64           `json:"seed"`
	Host      HostInfo         `json:"host"`
	Workloads []WorkloadResult `json:"workloads"`
	// Layers holds the per-layer metrics that belong to no single
	// workload: the isolated probes and the derived ratios.
	Layers []Metric `json:"layers"`
}

// HostInfo lets two reports show they ran on comparable hosts.
type HostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

// WorkloadResult is one workload's section of the report.
type WorkloadResult struct {
	Name        string   `json:"name"`
	Op          string   `json:"op"`
	Why         string   `json:"why"`
	InputDigest string   `json:"input_digest_fnv64a"`
	TimedReps   int      `json:"timed_reps"`
	Attempted   int      `json:"ops_attempted"`
	Failed      int      `json:"ops_failed"`
	Correct     bool     `json:"correct"`
	Problems    []string `json:"problems,omitempty"`
	EndToEnd    []Metric `json:"end_to_end"`
	PerLayer    []Metric `json:"per_layer,omitempty"`
}

// Metric is one named number. Host timings carry the samples they are
// the median of; exact metrics repeat bit for bit for a seed and have
// a single sample.
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"` // median of Samples
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
	Exact   bool      `json:"exact,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// End-to-end metric catalogue: unit, and the bound -compare applies.
// A relative bound of 0 means exact: any increase is a regression.
type e2eSpec struct {
	name, unit string
	rel        float64 // share of the baseline median the metric may worsen by
	abs        float64 // additional absolute slack, in the metric's unit
	// hostTime marks wall-clock metrics. They move with the host's speed,
	// which drifts between reports by more than their bounds, so
	// -compare judges them only on sides pooled from alternating reports.
	hostTime bool
}

var e2eSpecs = []e2eSpec{
	{name: "setup_s", unit: "s", rel: 0.25, abs: 0.02, hostTime: true},
	{name: "host_us_per_op", unit: "us", rel: 0.10, hostTime: true},
	{name: "host_allocs_per_op", unit: "count", rel: 0.05},
	{name: "virt_makespan_s", unit: "s"},
	{name: "virt_cycle_mean_ms", unit: "ms"},
	{name: "virt_dyn_p50_ms", unit: "ms"},
	{name: "virt_dyn_p99_ms", unit: "ms"},
	{name: "virt_queue_wait_p99_ms", unit: "ms"},
	{name: "ops_failed_share", unit: "ratio"},
}

func specOf(name string) (e2eSpec, bool) {
	for _, s := range e2eSpecs {
		if s.name == name {
			return s, true
		}
	}
	return e2eSpec{}, false
}

// quartiles returns the median and the first and third quartile of
// vs by linear interpolation between order statistics.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func sampled(name, unit string, vs []float64) Metric {
	q1, med, q3 := quartiles(vs)
	return Metric{Name: name, Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(vs), Samples: vs}
}

func exactly(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Q1: v, Q3: v, N: 1, Exact: true}
}

func single(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Q1: v, Q3: v, N: 1}
}

func findMetric(ms []Metric, name string) (Metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// write stores the report as JSON with one workload or metric to a
// line, so that two reports diff by metric.
func (r *Report) write(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	// Objects with a name are exactly the workloads and the metrics; a
	// quote inside a JSON string is escaped, so the pattern matches no
	// string's content.
	b = bytes.ReplaceAll(b, []byte(`{"name":`), []byte("\n{\"name\":"))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric of the report by name with its unit.
func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "dacperf seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s load1=%.2f\n",
		r.Seed, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit, r.Host.LoadAvg1)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for i := range r.Workloads {
		r.Workloads[i].print(tw)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(tw, "\nprobes and derived")
		printMetrics(tw, r.Layers)
	}
	tw.Flush()
}

func (wr *WorkloadResult) print(w io.Writer) {
	// Lines without a tab are not table cells: they end one aligned
	// block and do not widen the next one's columns.
	fmt.Fprintf(w, "\n%s  input=%s  op: %s\n", wr.Name, wr.InputDigest, wr.Op)
	fmt.Fprintf(w, "  ops_attempted\t%d\tcount\t\n  ops_failed\t%d\tcount\t\n", wr.Attempted, wr.Failed)
	printMetrics(w, wr.EndToEnd)
	printMetrics(w, wr.PerLayer)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func printMetrics(w io.Writer, ms []Metric) {
	for _, m := range ms {
		detail := m.Note
		switch {
		case m.Exact:
			detail = "exact " + detail
		case m.N > 1:
			detail = fmt.Sprintf("q1 %.6g  q3 %.6g  n %d %s", m.Q1, m.Q3, m.N, detail)
		}
		fmt.Fprintf(w, "  %s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, detail)
	}
}
