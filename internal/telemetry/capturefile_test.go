package telemetry_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/telemetry"
)

// Scrape lines of a capture file: telemetry owns the Window's
// encoding, internal/capture the file around it.

func TestJSONLRoundTrip(t *testing.T) {
	var wins []telemetry.Window
	for i, p99 := range []time.Duration{40 * time.Millisecond, 90 * time.Millisecond} {
		wins = append(wins, telemetry.Window{
			Index: i,
			Start: time.Duration(i) * time.Second,
			End:   time.Duration(i+1) * time.Second,
			Rows: []telemetry.Row{
				{Name: "maui.occupancy", Kind: telemetry.KindOccupancy, Delta: 0.25},
				{Name: "pbs.dyn_latency", Kind: telemetry.KindHistogram, Delta: 10, Total: 10, P50: p99 / 2, P99: p99, Mean: p99 / 2},
			},
		})
	}
	var buf bytes.Buffer
	if err := capture.Write(&buf, &capture.File{Windows: wins}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(wins) {
		t.Fatalf("capture has %d lines, want one per window (%d)", got, len(wins))
	}
	back, err := capture.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Windows, wins) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back.Windows, wins)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	_, err := capture.Read(strings.NewReader(`{"kind":"scrape","rec":{"window":0}}` + "\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered parse error, got %v", err)
	}
	f, err := capture.Read(strings.NewReader("\n\n"))
	if err != nil || f.Windows != nil {
		t.Fatalf("blank input: got %v, %v", f, err)
	}
}
