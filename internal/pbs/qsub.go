package pbs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseResourceRequest parses a qsub -l resource string of the form
// the paper uses:
//
//	nodes=2:ppn=4:acpn=1,walltime=00:30:00
//
// into a JobSpec (name, owner, and script are the caller's). acpn is
// the extension of Section III-C: network-attached accelerators per
// compute node.
func ParseResourceRequest(l string) (JobSpec, error) {
	spec := JobSpec{Nodes: 1, PPN: 1}
	if strings.TrimSpace(l) == "" {
		return spec, fmt.Errorf("pbs: empty resource request")
	}
	for _, clause := range strings.Split(l, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, value, found := strings.Cut(clause, "=")
		if !found {
			return spec, fmt.Errorf("pbs: malformed resource clause %q", clause)
		}
		switch key {
		case "nodes":
			// nodes=k[:ppn=q[:acpn=x]]
			parts := strings.Split(value, ":")
			k, err := strconv.Atoi(parts[0])
			if err != nil || k <= 0 {
				return spec, fmt.Errorf("pbs: bad node count %q", parts[0])
			}
			spec.Nodes = k
			for _, prop := range parts[1:] {
				pk, pv, ok := strings.Cut(prop, "=")
				if !ok {
					return spec, fmt.Errorf("pbs: malformed node property %q", prop)
				}
				v, err := strconv.Atoi(pv)
				if err != nil || v < 0 {
					return spec, fmt.Errorf("pbs: bad value in %q", prop)
				}
				switch pk {
				case "ppn":
					spec.PPN = v
				case "acpn":
					spec.ACPN = v
				default:
					return spec, fmt.Errorf("pbs: unknown node property %q", pk)
				}
			}
		case "walltime":
			d, err := parseWalltime(value)
			if err != nil {
				return spec, err
			}
			spec.Walltime = d
		default:
			return spec, fmt.Errorf("pbs: unknown resource %q", key)
		}
	}
	return spec, nil
}

// parseWalltime accepts HH:MM:SS, MM:SS, or plain seconds.
func parseWalltime(v string) (time.Duration, error) {
	parts := strings.Split(v, ":")
	if len(parts) > 3 {
		return 0, fmt.Errorf("pbs: bad walltime %q", v)
	}
	var total time.Duration
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("pbs: bad walltime %q", v)
		}
		total = total*60 + time.Duration(n)*time.Second
	}
	return total, nil
}

// FormatResourceRequest renders a JobSpec back into qsub -l syntax,
// the inverse of ParseResourceRequest.
func FormatResourceRequest(spec JobSpec) string {
	var buf [64]byte
	return string(appendResourceRequest(buf[:0], spec))
}

// appendResourceRequest appends FormatResourceRequest's text to b.
func appendResourceRequest(b []byte, spec JobSpec) []byte {
	b = strconv.AppendInt(append(b, "nodes="...), int64(spec.Nodes), 10)
	b = strconv.AppendInt(append(b, ":ppn="...), int64(spec.PPN), 10)
	if spec.ACPN > 0 {
		b = strconv.AppendInt(append(b, ":acpn="...), int64(spec.ACPN), 10)
	}
	if spec.Walltime > 0 {
		total := int64(spec.Walltime.Seconds())
		b = append(b, ",walltime="...)
		for i, v := range [3]int64{total / 3600, (total / 60) % 60, total % 60} {
			if i > 0 {
				b = append(b, ':')
			}
			if v < 10 {
				b = append(b, '0')
			}
			b = strconv.AppendInt(b, v, 10)
		}
	}
	return b
}
