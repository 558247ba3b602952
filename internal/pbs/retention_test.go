package pbs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/pbs"
)

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
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
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
		err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
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
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
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
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
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
// running — and returns the pbs.jobs sum of every digest round. Purged
// ids pile up in the submission log until more than 256 of them fill
// over half of it; the log then compacts around the two stragglers,
// and later rounds hash the compacted log.
func retentionRounds(t *testing.T) []int64 {
	t.Helper()
	rec := audit.New(1 << 16)
	p := cluster.Default()
	p.ComputeNodes = 2
	p.Accelerators = 2
	p.Server.RetainCompleted = 16
	p.Server.AcctRing = 64
	p.Audit = rec
	err := cluster.Run(p, func(c *cluster.Cluster, client *pbs.Client) {
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
	var sums []int64
	for _, e := range rec.Events() {
		if e.Kind == audit.KindDigest && e.Subj == "pbs.jobs" {
			sums = append(sums, e.A)
		}
	}
	return sums
}

// TestRetentionDigestGolden pins the pbs.jobs sum of every digest round
// of retentionRounds, across both log compactions: the sums are the
// ones the server recorded when its index was still a map beside the
// log.
func TestRetentionDigestGolden(t *testing.T) {
	want := []uint64{
		0xd52068e3f8ef3b4d, 0xa777befedf2cb2db, 0xfbfda687414a7bdb, 0xca2039bcda57bfab,
		0x79accd36c792905e, 0xf19309337f0adcfe, 0x2e569f5beea84ec9, 0x7a63872010e6c667,
		0xc3761544c67759e1, 0xb8e0e2e43ab7e4f3, 0xc7b3c4980a549ab2, 0x649871ef894d8ac4,
		0x6cca9fafbc91e9fe, 0xaec7dad55b7ba5be, 0x7568c274f2108fde, 0x3e73b025bb258cb6,
		0x1de87e2357f084ad, 0x3192d5169d462e4f, 0xdf179f6698e1680a, 0x6f00cd04bf7d53d1,
		0xe6713b8c6cdc293f, 0x1c76ece3cf73876c, 0x949bb1dad731497e, 0x7bccd73ee2aeb728,
		0x34a728f3a4cb920d, 0xd63254a762123d7a, 0x448980639f3dd9ca, 0x4ddc577d691bcc6a,
		0x1cd7353517c5c63b, 0x2e5a4e8fcc4851a2, 0x1b469eafe5004233, 0xe594721101fb14c5,
		0xc768fd640d4f9e9d, 0x1a2432d06226a9f6, 0xda863f2e2cddddd4, 0x940f4a97323cf614,
		0x2d3aca961feeddd3, 0x740c1c660acdecc1, 0xd94ab701540863ac, 0xff73f7b20101db47,
		0x79585a6489562fe3, 0xdae5ef3826bf13e,
	}
	got := retentionRounds(t)
	if len(got) != len(want) {
		t.Fatalf("%d digest rounds, want %d", len(got), len(want))
	}
	for i := range want {
		if uint64(got[i]) != want[i] {
			t.Errorf("round %d: pbs.jobs %#x, want %#x", i, uint64(got[i]), want[i])
		}
	}
}
