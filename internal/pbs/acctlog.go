package pbs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The accounting log mirrors TORQUE's accounting files: one record
// per lifecycle event, append-only, in a line format that survives a
// round trip through text. Workload analyses (utilization studies,
// trace reconstruction) consume it.

// Accounting record types.
const (
	AcctQueued    = 'Q' // job submitted
	AcctStarted   = 'S' // execution began
	AcctEnded     = 'E' // completed normally
	AcctDeleted   = 'D' // qdel
	AcctFailed    = 'F' // node failure
	AcctDynGrant  = 'G' // dynamic request granted
	AcctDynReject = 'R' // dynamic request rejected
	AcctDynFree   = 'L' // dynamic set released
)

// AccountingRecord is one line of the accounting log.
type AccountingRecord struct {
	At     time.Duration
	Type   byte
	JobID  string
	Detail string
}

// String renders the record in the log's line format:
// "<micros>;<type>;<jobid>;<detail>".
func (r AccountingRecord) String() string {
	return fmt.Sprintf("%d;%c;%s;%s", r.At.Microseconds(), r.Type, r.JobID, r.Detail)
}

// acctBlockLen is how many records a block of the accounting log holds,
// or AcctRing when that is less than twice as many.
const acctBlockLen = 1024

// account appends a record and mirrors it onto the trace bus, so the
// accounting log and the trace timeline can be cross-checked
// record-for-record. The caller appends the detail into a buffer on its
// stack (nil for none); the record's copy of it is the one allocation a
// record costs. The log is a list of fixed blocks, so it grows without
// copying what it holds.
func (s *Server) account(typ byte, jobID string, detail []byte) {
	rec := AccountingRecord{At: s.sim.Now(), Type: typ, JobID: jobID, Detail: string(detail)}
	if n := len(s.acct); n == 0 || len(s.acct[n-1]) == cap(s.acct[n-1]) {
		s.acct = append(s.acct, s.acctBlock())
	}
	s.acct[len(s.acct)-1] = append(s.acct[len(s.acct)-1], rec)
	if trc := s.sim.Tracer(); trc != nil {
		trc.InstantAt(ServerTrack, acctInstants[rec.Type], rec.At,
			"job", rec.JobID, "detail", rec.Detail)
	}
}

// acctBlock is the accounting log's next block. Online service mode
// bounds the log to AcctRing to twice that many records: once the blocks
// but the oldest hold AcctRing, the oldest goes and, emptied, is the next.
func (s *Server) acctBlock() []AccountingRecord {
	size := acctBlockLen
	if r := s.params.AcctRing; r > 0 {
		if r < 2*size {
			size = r
		}
		if (len(s.acct)-1)*size >= r {
			blk := s.acct[0]
			clear(blk)
			s.acct = append(s.acct[:0], s.acct[1:]...)
			return blk[:0]
		}
	}
	return make([]AccountingRecord, 0, size)
}

// acctInstants names the trace instant of each record type, "acct.Q"
// for AcctQueued: built once, so mirroring a record builds no string.
var acctInstants = func() (names [256]string) {
	for typ := range names {
		names[typ] = "acct." + string(byte(typ))
	}
	return names
}()

// The details of the record types that have one, appended to b.

func appendQueuedDetail(b []byte, spec JobSpec) []byte {
	b = append(append(append(b, "owner="...), spec.Owner...), ' ')
	return appendResourceRequest(b, spec)
}

func appendGrantDetail(b []byte, rec *DynRecord) []byte {
	b = appendKV(b, "client=", rec.ClientID)
	b = append(append(append(b, " kind="...), rec.Kind.String()...), " hosts="...)
	for i, h := range rec.Hosts {
		if i > 0 {
			b = append(b, '+')
		}
		b = append(b, h...)
	}
	return b
}

func appendKV(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// AccountingLog returns a snapshot of all records in order.
func (s *Server) AccountingLog() []AccountingRecord {
	return slices.Concat(s.acct...)
}

// WriteAccountingLog writes records in line format.
func WriteAccountingLog(w io.Writer, recs []AccountingRecord) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return fmt.Errorf("pbs: write accounting log: %w", err)
		}
	}
	return bw.Flush()
}

// ReadAccountingLog parses a log written by WriteAccountingLog.
func ReadAccountingLog(r io.Reader) ([]AccountingRecord, error) {
	var out []AccountingRecord
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, ";", 4)
		if len(parts) != 4 || len(parts[1]) != 1 {
			return nil, fmt.Errorf("pbs: accounting log line %d malformed", line)
		}
		us, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pbs: accounting log line %d: %w", line, err)
		}
		out = append(out, AccountingRecord{
			At:     time.Duration(us) * time.Microsecond,
			Type:   parts[1][0],
			JobID:  parts[2],
			Detail: parts[3],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pbs: accounting log scan: %w", err)
	}
	return out, nil
}
