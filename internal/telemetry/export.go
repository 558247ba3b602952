package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteProm writes the registry's cumulative state in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as-is,
// occupancy as a busy-seconds counter plus a ratio gauge over
// elapsed, and histograms as summaries with deterministic
// q=0.5/0.99/0.999 quantiles in seconds. Instrument names are
// sanitized (every non-alphanumeric byte becomes '_'); output is
// sorted, so identical runs export byte-identical pages.
func WriteProm(w io.Writer, reg *Registry, elapsed time.Duration) error {
	bw := bufio.NewWriter(w)
	for _, ref := range reg.instruments() {
		name := promName(ref.name)
		switch ref.kind {
		case KindCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, ref.ctr.Value())
		case KindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(ref.gag.Value()))
		case KindOccupancy:
			fmt.Fprintf(bw, "# TYPE %s_busy_seconds_total counter\n%s_busy_seconds_total %s\n",
				name, name, promFloat(ref.occ.Busy().Seconds()))
			fmt.Fprintf(bw, "# TYPE %s_ratio gauge\n%s_ratio %s\n",
				name, name, promFloat(ref.occ.Ratio(elapsed)))
		case KindHistogram:
			h := ref.hist
			fmt.Fprintf(bw, "# TYPE %s summary\n", name)
			for _, q := range [...]float64{0.5, 0.99, 0.999} {
				fmt.Fprintf(bw, "%s{quantile=%q} %s\n", name, promFloat(q), promFloat(h.Quantile(q).Seconds()))
			}
			fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum().Seconds()), name, h.Count())
		}
	}
	return bw.Flush()
}

// promName maps an instrument name onto the Prometheus identifier
// charset: [a-zA-Z0-9_], with a leading underscore if the name would
// otherwise start with a digit.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !ok {
			c = '_'
		}
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// promFloat renders a float the way the exposition format expects:
// shortest round-trip representation, no exponent surprises for the
// common small values.
func promFloat(v float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
