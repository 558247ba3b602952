package pbs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/pbs"
)

// runCapped is cluster.Run under the tests' virtual horizon.
func runCapped(p cluster.Params, body func(c *cluster.Cluster, client *pbs.Client)) error {
	return cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
		c.Sim.SetDeadline(horizon)
		body(c, client)
	})
}

// runRetention drives a small cluster through n short jobs with the
// given retention window and returns the final record stats plus the
// completed-state check result.
func runRetention(t *testing.T, n, retain int, aud *audit.Recorder) pbs.JobRecordStats {
	t.Helper()
	p := cluster.Default()
	p.ComputeNodes = 2
	p.Accelerators = 2
	p.Server.RetainCompleted = retain
	p.Server.AcctRing = 64
	p.Audit = aud
	var stats pbs.JobRecordStats
	err := runCapped(p, func(c *cluster.Cluster, client *pbs.Client) {
		// Submit serially (wait for each job) so terminal records
		// accumulate and purge while the stream is still running —
		// the steady-state shape of an online service.
		for i := 0; i < n; i++ {
			id, err := client.Submit(pbs.JobSpec{
				Name: fmt.Sprintf("j%d", i), Owner: "u", Nodes: 1, PPN: 1,
				Walltime: time.Second,
				Script: func(env *pbs.JobEnv) {
					c.Sim.Sleep(2 * time.Millisecond)
				},
			})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			if _, err := client.Wait(id); err != nil {
				t.Errorf("Wait %s: %v", id, err)
				return
			}
		}
		// Let a few more scheduler cycles pass so the final batch of
		// terminal records crosses the purge boundary.
		c.Sim.Sleep(2 * time.Second)
		stats = c.Server.JobRecords()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// With a retention window, a long submission stream must hold the
// index at O(window): old terminal records purge, their structs
// recycle through the pool, and the audit invariants keep passing.
func TestRetentionBoundsJobRecords(t *testing.T) {
	aud := audit.New(1 << 16)
	stats := runRetention(t, 300, 16, aud)
	if stats.Purged == 0 {
		t.Fatal("no records purged despite window of 16")
	}
	if stats.Reused == 0 {
		t.Fatal("pool never reused a record")
	}
	if stats.Retained > 16 {
		t.Fatalf("retained %d > window 16", stats.Retained)
	}
	if stats.Live+stats.Retained > 64 {
		t.Fatalf("index holds %d records after 300 jobs, want O(window)", stats.Live+stats.Retained)
	}
	if br := aud.Breaches(); br != 0 {
		t.Fatalf("%d audit breaches with retention on", br)
	}
}

// Retention off (the default) keeps every record — the original batch
// behavior every existing figure depends on.
func TestRetentionOffKeepsEverything(t *testing.T) {
	stats := runRetention(t, 50, 0, nil)
	if stats.Purged != 0 || stats.Reused != 0 {
		t.Fatalf("default config purged %d reused %d, want 0/0", stats.Purged, stats.Reused)
	}
	if stats.Live+stats.Retained != 50 {
		t.Fatalf("index holds %d records, want all 50", stats.Live+stats.Retained)
	}
}

// The retention window must not change what the cluster computes:
// same submissions, same completion times, purge only affects which
// records remain inspectable afterwards.
func TestRetentionPreservesSchedule(t *testing.T) {
	run := func(retain int) []time.Duration {
		p := cluster.Default()
		p.ComputeNodes = 2
		p.Accelerators = 2
		p.Server.RetainCompleted = retain
		var done []time.Duration
		err := runCapped(p, func(c *cluster.Cluster, client *pbs.Client) {
			ids := make([]string, 0, 80)
			for i := 0; i < 80; i++ {
				id, err := client.Submit(pbs.JobSpec{
					Name: fmt.Sprintf("j%d", i), Owner: "u", Nodes: 1, PPN: 1,
					Walltime: time.Second,
					Script: func(env *pbs.JobEnv) {
						c.Sim.Sleep(3 * time.Millisecond)
					},
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids = append(ids, id)
				c.Sim.Sleep(time.Millisecond)
			}
			for _, id := range ids {
				info, err := client.Wait(id)
				if err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
				done = append(done, info.CompletedAt)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return done
	}
	keep, window := run(0), run(8)
	if len(keep) != len(window) {
		t.Fatalf("completion counts differ: %d vs %d", len(keep), len(window))
	}
	for i := range keep {
		if keep[i] != window[i] {
			t.Fatalf("job %d completed at %v without retention, %v with", i, keep[i], window[i])
		}
	}
}

// A purged job is gone from qstat: the server answers ErrUnknownJob,
// exactly like a job that never existed.
func TestRetentionPurgedJobUnknown(t *testing.T) {
	p := cluster.Default()
	p.ComputeNodes = 1
	p.Accelerators = 1
	p.Server.RetainCompleted = 4
	err := runCapped(p, func(c *cluster.Cluster, client *pbs.Client) {
		var first string
		for i := 0; i < 40; i++ {
			id, err := client.Submit(pbs.JobSpec{
				Name: fmt.Sprintf("j%d", i), Owner: "u", Nodes: 1, PPN: 1,
				Walltime: time.Second,
				Script:   func(env *pbs.JobEnv) { c.Sim.Sleep(time.Millisecond) },
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if i == 0 {
				first = id
			}
			if _, err := client.Wait(id); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
		}
		c.Sim.Sleep(2 * time.Second)
		if _, err := client.Stat(first); err == nil {
			t.Errorf("Stat(%s) succeeded after purge", first)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Accounting ring: the in-memory log stays bounded at ~2x the ring
// while newest records survive.
func TestAcctRingBounds(t *testing.T) {
	p := cluster.Default()
	p.ComputeNodes = 1
	p.Accelerators = 1
	p.Server.RetainCompleted = 8
	p.Server.AcctRing = 32
	err := runCapped(p, func(c *cluster.Cluster, client *pbs.Client) {
		for i := 0; i < 100; i++ {
			id, err := client.Submit(pbs.JobSpec{
				Name: fmt.Sprintf("j%d", i), Owner: "u", Nodes: 1, PPN: 1,
				Walltime: time.Second,
				Script:   func(env *pbs.JobEnv) { c.Sim.Sleep(time.Millisecond) },
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if _, err := client.Wait(id); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
		}
		log := c.Server.AccountingLog()
		if len(log) > 64 {
			t.Errorf("accounting log holds %d records, ring is 32", len(log))
		}
		if len(log) == 0 {
			t.Error("accounting log empty")
		}
		// Newest records survive the ring compaction.
		last := log[len(log)-1]
		if last.JobID == "" {
			t.Errorf("tail record malformed: %+v", last)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// retentionRounds drives a retention window of 16 through 720 short
// jobs, with two records that stay live throughout — one held, one
// running — and returns the pbs.jobs sum of every digest round, and
// beside it the same digest recomputed from scratch in the same round.
// Purged ids pile up in the submission log until more than 256 of them
// fill over half of it; the log then compacts around the two
// stragglers, and later rounds hash the compacted log.
func retentionRounds(t *testing.T) (sums, rehashed []int64) {
	t.Helper()
	rec := audit.New(1 << 16)
	p := cluster.Default()
	p.ComputeNodes = 2
	p.Accelerators = 2
	p.Server.RetainCompleted = 16
	p.Server.AcctRing = 64
	p.Audit = rec
	err := runCapped(p, func(c *cluster.Cluster, client *pbs.Client) {
		// Sorted after pbs.jobs: each round runs it right after.
		rec.RegisterDigest("test", "pbs.jobs.rehash", c.Server.RehashJobsForTest)
		audit.NewTicker(rec, c.Sim, time.Second).Start()
		submit := func(name string, runFor time.Duration) string {
			id, err := client.Submit(pbs.JobSpec{
				Name: name, Owner: "u", Nodes: 1, PPN: 1, Walltime: time.Hour,
				Script: func(env *pbs.JobEnv) { c.Sim.Sleep(runFor) },
			})
			if err != nil {
				t.Errorf("Submit %s: %v", name, err)
			}
			return id
		}
		held := submit("held", time.Millisecond)
		if err := client.Hold(held); err != nil {
			t.Errorf("Hold: %v", err)
		}
		long := submit("long", time.Hour)
		var first string
		for batch := 0; batch < 72; batch++ {
			ids := make([]string, 0, 10)
			for i := 0; i < 10; i++ {
				ids = append(ids, submit(fmt.Sprintf("j%d-%d", batch, i), time.Duration(1+i%3)*time.Millisecond))
			}
			if first == "" {
				first = ids[0]
			}
			for _, id := range ids {
				if _, err := client.Wait(id); err != nil {
					t.Errorf("Wait %s: %v", id, err)
					return
				}
			}
		}
		c.Sim.Sleep(time.Second)
		// The compacted log still finds the stragglers and has lost
		// the purged.
		for _, id := range []string{held, long} {
			if _, err := client.Stat(id); err != nil {
				t.Errorf("Stat(%s) after compaction: %v", id, err)
			}
		}
		if _, err := client.Stat(first); err == nil {
			t.Errorf("Stat(%s) succeeded after purge", first)
		}
		for _, id := range []string{held, long} {
			if err := client.Delete(id); err != nil {
				t.Errorf("Delete %s: %v", id, err)
			}
		}
		c.Sim.Sleep(time.Second)
		if st := c.Server.JobRecords(); st.Purged < 700 {
			t.Errorf("record stats %+v: want over 700 purged", st)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if names := breachNames(rec); len(names) != 0 {
		t.Errorf("breaches %v", names)
	}
	for _, e := range rec.Events() {
		switch {
		case e.Kind != audit.KindDigest:
		case e.Subj == "pbs.jobs":
			sums = append(sums, e.A)
		case e.Subj == "pbs.jobs.rehash":
			rehashed = append(rehashed, e.A)
		}
	}
	return sums, rehashed
}

// TestRetentionDigestEqualsRehash holds the pbs.jobs digest, whose
// entries keep their ids hashed, to the full rehash of every logged id
// at every round of retentionRounds, across both compactions.
func TestRetentionDigestEqualsRehash(t *testing.T) {
	sums, rehashed := retentionRounds(t)
	if len(sums) < 10 || len(rehashed) != len(sums) {
		t.Fatalf("%d digest rounds, %d rehashes; want the same number, at least 10", len(sums), len(rehashed))
	}
	for i := range sums {
		if sums[i] != rehashed[i] {
			t.Errorf("round %d: pbs.jobs %#x, rehashed %#x", i, uint64(sums[i]), uint64(rehashed[i]))
		}
	}
}

// TestRetentionDigestGolden pins the pbs.jobs sum of every digest round
// of retentionRounds, across both log compactions.
func TestRetentionDigestGolden(t *testing.T) {
	want := []uint64{
		0x74226314ef14ab8e, 0x8d6877783a9ef250, 0x7a2734e43873bc9c, 0x6cc53a05b902dd5e,
		0xd3a0e83f6e705252, 0xae41c6ea85dfe8e0, 0x9bb6d22ade411038, 0xed77dccd753b605c,
		0xe1b57162401505d7, 0x85da2a25e8b243b, 0x2c526ee0f8343319, 0x53341c7f24bf3271,
		0x9da7b1f1705be566, 0xa1754dc671baa825, 0x302030f9529ff95, 0x3e36947d511ab9aa,
		0x5d5b9b31482086b7, 0x67ba5ba4c14a5546, 0x766910d4d9325310, 0x2fcad5db03b234bd,
		0xe068b6e0efb0369, 0x94c2617a19227735, 0x777ee61aa19808d8, 0xc1a1b32128cd01c8,
		0x2eef343eb63a40f2, 0x7eda4619f00aff31, 0x835f42ca8c674f86, 0xdbf365ce62cd8e26,
		0x4f9d899e48f7290d, 0xa4ba0eb3097e9b52, 0x2d9ffc24da160b9d, 0x9828ee7132cacdce,
		0x86724534ed84dfaa, 0x1cfcb8a5bba98315, 0xbf8a6cc93ac7297, 0xb011e1f7a97391fc,
		0x34db8309f8ce074d, 0xa5900e610edab499, 0x4ac65eebb163bb81, 0x2fa59bacb51c0e22,
		0xbd7273f9998e5eb3, 0x5341c4f20ea45c65,
	}
	got, _ := retentionRounds(t)
	if len(got) != len(want) {
		t.Fatalf("%d digest rounds, want %d", len(got), len(want))
	}
	for i := range want {
		if uint64(got[i]) != want[i] {
			t.Errorf("round %d: pbs.jobs %#x, want %#x", i, uint64(got[i]), want[i])
		}
	}
}
