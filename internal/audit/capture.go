package audit

import (
	"encoding/json"
	"fmt"
	"time"
)

// jsonEvent is the wire form of an Event on a capture file's "audit"
// lines: kinds travel as their names so recordings stay greppable,
// and virtual time travels in nanoseconds.
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	VT     int64  `json:"vt_ns"`
	Kind   string `json:"kind"`
	Comp   string `json:"comp,omitempty"`
	Subj   string `json:"subj,omitempty"`
	Detail string `json:"detail,omitempty"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
}

// MarshalJSON encodes the event in its wire form.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		Seq: e.Seq, VT: int64(e.VT), Kind: e.Kind.String(),
		Comp: e.Comp, Subj: e.Subj, Detail: e.Detail, A: e.A, B: e.B,
	})
}

// UnmarshalJSON decodes the wire form; an unknown kind is an error.
func (e *Event) UnmarshalJSON(b []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(b, &je); err != nil {
		return err
	}
	k := KindFromString(je.Kind)
	if k == 0 {
		return fmt.Errorf("audit: unknown kind %q", je.Kind)
	}
	*e = Event{
		Seq: je.Seq, VT: time.Duration(je.VT), Kind: k,
		Comp: je.Comp, Subj: je.Subj, Detail: je.Detail, A: je.A, B: je.B,
	}
	return nil
}
