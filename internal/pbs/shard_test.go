package pbs

import "testing"

func TestJobSeq(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{
		{"0.pbs/server", 0},
		{"17.pbs/server", 17},
		{"230.pbs/server", 230},
		{"7", 7},
		{"pbs/server", 0}, // no leading digits
		{"", 0},
		{"9223372036854775807.pbs/server", 1<<63 - 1},
		{"9223372036854775808.pbs/server", 0}, // overflows: no job's
		{"99999999999999999999999.pbs/server", 0},
	}
	for _, c := range cases {
		if got := jobSeq(c.id); got != c.want {
			t.Errorf("jobSeq(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestHostShardStableAndInRange(t *testing.T) {
	hosts := []string{"cn0", "cn1", "ac12", "node-with-a-long-name"}
	for _, h := range hosts {
		a, b := hostShard(h, 7), hostShard(h, 7)
		if a != b {
			t.Errorf("hostShard(%q) not stable: %d vs %d", h, a, b)
		}
		if a < 0 || a >= 7 {
			t.Errorf("hostShard(%q, 7) = %d out of range", h, a)
		}
	}
}

func TestShardForRouting(t *testing.T) {
	s := &Server{stations: make([]station, 4)}
	rr := 0

	// Every client and mom message about one job must land on the same
	// shard so the per-job message order the faithful loop guaranteed
	// survives.
	jobID := "17.pbs/server"
	want := 17 % 4
	for _, payload := range []any{
		&StatReq{JobID: jobID}, &AlterReq{JobID: jobID}, &HoldReq{JobID: jobID},
		&DeleteReq{JobID: jobID}, &WaitReq{JobID: jobID}, &DynGetReq{JobID: jobID},
		&DynFreeReq{JobID: jobID}, &JobStartedMsg{JobID: jobID}, &JobDoneMsg{JobID: jobID},
	} {
		if got := s.shardFor(payload, &rr); got != want {
			t.Errorf("shardFor(%T) = %d, want %d", payload, got, want)
		}
	}

	// The scheduler's traffic shares one station, so a snapshot is
	// served after every command its sender issued before it.
	for _, payload := range []any{
		&SchedInfoReq{}, &AllocCmd{JobID: jobID}, &DynAllocCmd{ReqID: 6},
	} {
		if got := s.shardFor(payload, &rr); got != 0 {
			t.Errorf("shardFor(%T) = %d, want 0", payload, got)
		}
	}

	// A dynamic request's acks follow the request id.
	if got := s.shardFor(&DynAddAck{ReqID: 6}, &rr); got != 6%4 {
		t.Errorf("shardFor(&DynAddAck{ReqID: 6}) = %d, want %d", got, 6%4)
	}

	// Submissions round-robin across shards.
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		seen[s.shardFor(&SubmitReq{}, &rr)] = true
	}
	if len(seen) != 4 {
		t.Errorf("SubmitReq round-robin covered %d of 4 shards", len(seen))
	}

	// Cluster-wide queries pin to shard 0.
	if got := s.shardFor(&NodesReq{}, &rr); got != 0 {
		t.Errorf("shardFor(NodesReq) = %d, want 0", got)
	}
}
