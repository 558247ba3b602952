package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// GanttBar is one row of an ASCII timeline: typically a job with its
// queued and running intervals.
type GanttBar struct {
	Label string
	// Queued marks the waiting interval (rendered '.'), Start..End
	// the running interval (rendered '#'). Queued may equal Start
	// for jobs that started immediately.
	Queued time.Duration
	Start  time.Duration
	End    time.Duration
}

// Gantt renders bars as an ASCII timeline scaled to width columns —
// the qstat -t style overview examples/operations prints.
type Gantt struct {
	Title string
	Width int
	Bars  []GanttBar
}

// Add appends a bar.
func (g *Gantt) Add(label string, queued, start, end time.Duration) {
	g.Bars = append(g.Bars, GanttBar{Label: label, Queued: queued, Start: start, End: end})
}

// Render writes the timeline.
func (g *Gantt) Render(w io.Writer) error {
	width := g.Width
	if width <= 0 {
		width = 60
	}
	var min, max time.Duration
	first := true
	for _, b := range g.Bars {
		if first || b.Queued < min {
			min = b.Queued
		}
		if first || b.End > max {
			max = b.End
		}
		first = false
	}
	if first {
		_, err := fmt.Fprintf(w, "%s\n(empty)\n", g.Title)
		return err
	}
	span := max - min
	if span <= 0 {
		span = time.Nanosecond
	}
	col := func(t time.Duration) int {
		c := int(float64(t-min) / float64(span) * float64(width))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	labelW := 0
	for _, b := range g.Bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	var sb strings.Builder
	if g.Title != "" {
		fmt.Fprintf(&sb, "%s\n", g.Title)
	}
	for _, b := range g.Bars {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		qs, rs, re := col(b.Queued), col(b.Start), col(b.End)
		for i := qs; i < rs && i < width; i++ {
			row[i] = '.'
		}
		if re == rs && re < width {
			re = rs + 1 // a running job always shows at least one cell
		}
		for i := rs; i < re && i < width; i++ {
			row[i] = '#'
		}
		fmt.Fprintf(&sb, "%-*s |%s|\n", labelW, b.Label, string(row))
	}
	fmt.Fprintf(&sb, "%-*s  %v%s%v\n", labelW, "", min.Round(time.Millisecond),
		strings.Repeat(" ", maxInt(1, width-18)), max.Round(time.Millisecond))
	_, err := io.WriteString(w, sb.String())
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
