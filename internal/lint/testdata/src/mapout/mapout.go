// Package mapout exercises the maporder analyzer: map iteration that
// reaches emitted output must pass through a sort first.
package mapout

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

func emitsDirectly(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `output emitted inside a range over a map`
	}
}

func printsDirectly(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `output emitted inside a range over a map`
	}
}

func emitsCSV(w *csv.Writer, m map[string]string) {
	for k, v := range m {
		_ = w.Write([]string{k, v}) // want `output emitted inside a range over a map`
	}
}

// Table models the repository's metrics.Table row sink.
type Table struct{ rows [][]string }

func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

func fillsTable(t *Table, m map[string]int) {
	for k, v := range m {
		t.AddRow(k, fmt.Sprint(v)) // want `output emitted inside a range over a map`
	}
}

func accumulatesUnsorted(w io.Writer, m map[string]int) {
	var lines []string
	for k := range m {
		lines = append(lines, k) // want `lines accumulates elements in map iteration order`
	}
	fmt.Fprintln(w, strings.Join(lines, ","))
}

func accumulatesSorted(w io.Writer, m map[string]int) {
	var lines []string
	for k := range m {
		lines = append(lines, k) // sorted below before emission
	}
	sort.Strings(lines)
	fmt.Fprintln(w, strings.Join(lines, ","))
}

func sortedBySlice(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintln(w, k, m[k])
	}
}

// collectKeys only gathers; whether the caller sorts is out of this
// function's hands, so nothing is flagged.
func collectKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// aggregates never leak order: reductions and map-to-map writes are
// order-independent.
func aggregates(w io.Writer, m map[string]int) {
	total := 0
	index := make(map[int]string)
	for k, v := range m {
		total += v
		index[v] = k
	}
	fmt.Fprintln(w, total)
}

func annotated(w io.Writer, m map[string]int) {
	for k := range m {
		//lint:ignore maporder debug dump, order is irrelevant to the figures
		fmt.Fprintln(w, k)
	}
}

// Recorder and Endpoint model the audit recorder and the netsim
// endpoint: what is recorded or sent in map order differs run to run.
type Recorder struct{ events []string }

func (r *Recorder) Record(subj string) { r.events = append(r.events, subj) }

type Endpoint struct{ sent []string }

func (e *Endpoint) SendCause(to string, cause uint64) error {
	e.sent = append(e.sent, to)
	return nil
}

func commitsInMapOrder(r *Recorder, acc map[string][]string) {
	for _, acs := range acc {
		for _, h := range acs {
			r.Record(h) // want `output emitted inside a range over a map`
		}
	}
}

func tellsInMapOrder(e *Endpoint, moms map[string]string) {
	for _, ep := range moms {
		_ = e.SendCause(ep, 0) // want `output emitted inside a range over a map`
	}
}

func tellsInHostOrder(e *Endpoint, r *Recorder, hosts []string, moms map[string]string) {
	for _, h := range hosts {
		r.Record(h)
		_ = e.SendCause(moms[h], 0)
	}
}
