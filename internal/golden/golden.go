// Package golden holds the programs the repo ships to their committed
// output: a test runs a program in-process and compares what it
// printed with a file byte for byte.
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails t unless got equals the committed file golden. pkg is
// the program's directory relative to the repository root, args its
// arguments; golden and any path in args are relative to pkg, where
// the test runs. The message names the command that regenerates the
// file, after which git diff shows what moved.
func Check(t testing.TB, got []byte, pkg, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		cmd := strings.Join(append([]string{"go run ."}, args...), " ")
		t.Errorf("output differs from %s; if the change is meant, regenerate it from the repository root:\n\tcd %s && %s > %s",
			golden, pkg, cmd, golden)
	}
}

// Stdout runs fn with os.Stdout pointed at a file and returns what fn
// wrote there: the output of a main that prints with fmt.
func Stdout(t testing.TB, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
