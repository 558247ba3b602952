package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWriteProm(t *testing.T) {
	reg := New()
	reg.Counter("net.msgs").Add(42)
	reg.Gauge("pbs.queue_depth").Set(7)
	reg.Occupancy("maui.occupancy").OnFor(2 * time.Second)
	h := reg.Histogram("pbs.dyn_latency")
	h.Record(100 * time.Millisecond)
	h.Record(300 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteProm(&buf, reg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE net_msgs counter\nnet_msgs 42\n",
		"# TYPE pbs_queue_depth gauge\npbs_queue_depth 7\n",
		"maui_occupancy_busy_seconds_total 2\n",
		"maui_occupancy_ratio 0.2\n",
		"# TYPE pbs_dyn_latency summary\n",
		`pbs_dyn_latency{quantile="0.5"}`,
		"pbs_dyn_latency_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sorted output: identical registries export identical pages.
	var buf2 bytes.Buffer
	if err := WriteProm(&buf2, reg, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteProm is not deterministic")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pbs.dyn_latency": "pbs_dyn_latency",
		"net msgs/total":  "net_msgs_total",
		"9lives":          "_9lives",
		"ok_name":         "ok_name",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
