package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// The paper's four figures, at the paper's 10 trials, must match the
// series committed under results/ byte for byte — the files
// scripts/reproduce.sh writes with dacsim -fig <f> -trials 10 -csv.
// Regenerate them with that script when a figure moves on purpose.
func TestFiguresMatchCommittedResults(t *testing.T) {
	p := cluster.Default()
	figs := []struct {
		file  string
		table func() (*metrics.Table, error)
	}{
		{"fig7a.csv", func() (*metrics.Table, error) {
			pts, err := Fig7a(p, 6, 10)
			return Fig7aTable(pts), err
		}},
		{"fig7b.csv", func() (*metrics.Table, error) {
			pts, err := Fig7b(p, 6, 10)
			return Fig7bTable(pts), err
		}},
		{"fig8.csv", func() (*metrics.Table, error) {
			pts, err := Fig8(p, []int{0, 16, 20}, 10)
			return Fig8Table(pts), err
		}},
		{"fig9.csv", func() (*metrics.Table, error) {
			pts, err := Fig9(p, 10)
			return Fig9Table(pts), err
		}},
	}
	for _, fig := range figs {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		table, err := fig.table()
		if err != nil {
			t.Fatalf("%s: %v", fig.file, err)
		}
		var got bytes.Buffer
		if err := table.CSV(&got); err != nil {
			t.Fatalf("%s: %v", fig.file, err)
		}
		got.WriteByte('\n') // dacsim ends every table with a blank line
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("results/%s is stale:\n--- computed ---\n%s--- committed ---\n%s", fig.file, got.Bytes(), want)
		}
	}
}
