package pbs

import (
	"testing"
	"testing/quick"
	"time"
)

func TestParseResourceRequest(t *testing.T) {
	spec, err := ParseResourceRequest("nodes=2:ppn=4:acpn=1,walltime=00:30:00")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 2 || spec.PPN != 4 || spec.ACPN != 1 || spec.Walltime != 30*time.Minute {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestParseResourceRequestPaperExamples(t *testing.T) {
	// qsub -l nodes=k:ppn=q (paper Section III-A)
	spec, err := ParseResourceRequest("nodes=3:ppn=8")
	if err != nil || spec.Nodes != 3 || spec.PPN != 8 || spec.ACPN != 0 {
		t.Fatalf("spec = %+v, err = %v", spec, err)
	}
	// qsub -l nodes=1:acpn=x (paper Section III-C)
	spec, err = ParseResourceRequest("nodes=1:acpn=6")
	if err != nil || spec.Nodes != 1 || spec.ACPN != 6 {
		t.Fatalf("spec = %+v, err = %v", spec, err)
	}
	if spec.PPN != 1 {
		t.Fatalf("ppn should default to 1, got %d", spec.PPN)
	}
}

func TestParseWalltimeForms(t *testing.T) {
	cases := map[string]time.Duration{
		"nodes=1,walltime=90":       90 * time.Second,
		"nodes=1,walltime=02:30":    150 * time.Second,
		"nodes=1,walltime=01:00:00": time.Hour,
	}
	for in, want := range cases {
		spec, err := ParseResourceRequest(in)
		if err != nil || spec.Walltime != want {
			t.Errorf("%q -> %v, %v (want %v)", in, spec.Walltime, err, want)
		}
	}
}

func TestParseResourceRequestErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"nodes=0",
		"nodes=-1",
		"nodes=x",
		"nodes=1:ppn",
		"nodes=1:ppn=-2",
		"nodes=1:gpus=2",
		"mem=4gb",
		"nodes=1,walltime=1:2:3:4",
		"nodes=1,walltime=ab",
		"nodes=1,walltime=9223372037",
		"nodes=1,walltime=2562048:00:00",
		"nodes=1,walltime=99999999999:0:0",
		"nodes",
	} {
		if _, err := ParseResourceRequest(bad); err == nil {
			t.Errorf("ParseResourceRequest(%q) should fail", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	if err := quick.Check(func(nodes, ppn, acpn uint8, wallMin uint16) bool {
		spec := JobSpec{
			Nodes:    int(nodes%8) + 1,
			PPN:      int(ppn%16) + 1,
			ACPN:     int(acpn % 4),
			Walltime: time.Duration(wallMin%1000) * time.Minute,
		}
		s := FormatResourceRequest(spec)
		got, err := ParseResourceRequest(s)
		if err != nil {
			return false
		}
		return got.Nodes == spec.Nodes && got.PPN == spec.PPN &&
			got.ACPN == spec.ACPN && got.Walltime == spec.Walltime
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseResourceRequest holds the qsub -l parser to its contract:
// it never panics, whatever it accepts is a valid request, and an
// accepted request formats and parses back to itself (walltime to the
// second).
func FuzzParseResourceRequest(f *testing.F) {
	for _, seed := range []string{
		"nodes=2:ppn=4:acpn=1,walltime=00:30:00",
		"nodes=1,walltime=9223372036",
		"nodes=1,walltime=9223372037",
		"nodes=1,walltime=2562048:00:00",
		"nodes=1,walltime=99999999999:0:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, l string) {
		spec, err := ParseResourceRequest(l)
		if err != nil {
			return
		}
		if spec.Nodes < 1 || spec.PPN < 0 || spec.ACPN < 0 || spec.Walltime < 0 {
			t.Fatalf("%q accepted as %+v", l, spec)
		}
		back, err := ParseResourceRequest(FormatResourceRequest(spec))
		if err != nil {
			t.Fatalf("%q: %q does not parse back: %v", l, FormatResourceRequest(spec), err)
		}
		if back.Nodes != spec.Nodes || back.PPN != spec.PPN || back.ACPN != spec.ACPN ||
			back.Walltime != spec.Walltime.Truncate(time.Second) {
			t.Fatalf("%q: %+v formats and parses back as %+v", l, spec, back)
		}
	})
}
