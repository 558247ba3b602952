// Package metricnames exercises the metricname analyzer: instrument
// names passed to the telemetry registry must be compile-time
// constants.
package metricnames

import (
	"fmt"

	"telemetry"
)

var reg = telemetry.New()

const prefix = "pbs."
const full = prefix + "dyn_latency"

// Clean: literals and constants, including constant-folded
// concatenation, on every registry kind.
func constants() {
	reg.Counter("pbs.submits")
	reg.Gauge("pbs.queue_depth")
	reg.Histogram(full)
	reg.Occupancy(prefix + "busy")
}

// Dynamic names assembled at runtime are the cardinality leak the
// analyzer exists for.
func dynamic(host string, link int) {
	reg.Counter("net." + host)                    // want `must be a compile-time constant`
	reg.Gauge(fmt.Sprintf("link.%d.depth", link)) // want `must be a compile-time constant`
	reg.Histogram(name(host))                     // want `must be a compile-time constant`
	reg.Occupancy(host)                           // want `must be a compile-time constant`
}

// A variable of constant value is still a runtime expression: the
// type checker does not fold it, and neither does the analyzer.
func namedVariable() {
	n := "pbs.submits"
	reg.Counter(n) // want `must be a compile-time constant`
}

// Suppression follows the usual directive contract.
func suppressed(host string) {
	//lint:ignore metricname per-host series bounded by the fixed testbed size
	reg.Counter("host." + host)
}

func name(host string) string { return "net." + host }
