// Faulttolerance: the paper's outlook (Section VI) made concrete —
// heartbeat-based failure detection, applications surviving the loss
// of a network-attached accelerator, and malleable growth of compute
// nodes. An accelerator host crashes mid-run: the computation API
// surfaces a timeout, the failure detector removes the node from the
// pool, the application re-acquires a replacement through AC_Get, and
// finally grows its compute-node set through the malleable
// pbs_dynget extension. Last, the head node fails over: the server's
// state is checkpointed while a job runs, pbs_server crashes, and a
// replacement restored from the checkpoint finishes the job.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	params := repro.DefaultParams()
	params.ComputeNodes = 3
	params.Accelerators = 4
	// Enable the fault-tolerance machinery (off in the calibrated
	// defaults so the figure experiments stay untouched).
	params.Mom.HeartbeatEvery = 50 * time.Millisecond
	params.Server.DeadAfter = 250 * time.Millisecond
	params.DAC.OpTimeout = 150 * time.Millisecond

	err := repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		id, err := client.Submit(repro.JobSpec{
			Name:     "survivor",
			Owner:    "dora",
			Nodes:    1,
			PPN:      4,
			ACPN:     1,
			Walltime: time.Minute,
			Script:   func(env *repro.JobEnv) { survivor(c, env) },
		})
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		info, err := client.Wait(id)
		if err != nil {
			log.Fatalf("wait: %v", err)
		}
		fmt.Printf("\njob finished in state %v after %v\n", info.State, info.CompletedAt-info.StartedAt)
		printNodes(client)
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	if err := repro.RunCluster(params, failover); err != nil {
		log.Fatalf("failover: %v", err)
	}
}

func printNodes(client *repro.Client) {
	nodes, _ := client.Nodes()
	for _, n := range nodes {
		status := "up"
		if n.Down {
			status = "DOWN"
		}
		fmt.Printf("  %-4s %-11s %s\n", n.Name, n.Type, status)
	}
}

// failover checkpoints the server's state while a job runs across a
// pbs_server crash, then restores a replacement server from it.
func failover(c *repro.Cluster, client *repro.Client) {
	fmt.Println("\n== head-node failover: checkpoint, crash, restore ==")
	id, err := client.Submit(repro.JobSpec{
		Name: "survivor", Owner: "op", Nodes: 1, PPN: 2, ACPN: 1, Walltime: time.Minute,
		Script: func(env *repro.JobEnv) {
			ac, _, err := repro.Init(env)
			if err != nil {
				fmt.Printf("AC_Init: %v\n", err)
				return
			}
			defer ac.Finalize()
			c.Sim.Sleep(400 * time.Millisecond) // runs across the crash
		},
	})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	c.Sim.Sleep(250 * time.Millisecond)
	fmt.Printf("[%8v] job %s running; taking serverdb checkpoint\n", now(c), id)
	snap := c.Server.Checkpoint()
	c.Server.Stop()
	fmt.Printf("[%8v] *** pbs_server crashed ***\n", now(c))
	c.Sim.Sleep(50 * time.Millisecond)

	replacement := repro.NewServer(c.Net, c.Params.Server)
	replacement.SetScheduler(c.Sched.Endpoint())
	if err := replacement.Restore(snap); err != nil {
		log.Fatalf("restore: %v", err)
	}
	replacement.Start()
	fmt.Printf("[%8v] replacement server restored %d job(s), %d node(s)\n", now(c), len(snap.Jobs), len(snap.Nodes))
	info, err := client.Wait(id)
	if err != nil {
		log.Fatalf("wait: %v", err)
	}
	fmt.Printf("[%8v] job finished in state %v — the application never noticed\n", now(c), info.State)
	printNodes(client)
}

// now is the cluster's virtual clock, to the millisecond.
func now(c *repro.Cluster) time.Duration { return c.Sim.Now().Round(time.Millisecond) }

func survivor(c *repro.Cluster, env *repro.JobEnv) {
	ac, static, err := repro.Init(env)
	if err != nil {
		fmt.Printf("AC_Init: %v\n", err)
		return
	}
	defer ac.Finalize()
	victim := static[0]
	fmt.Printf("[%8v] working on accelerator %s\n", now(c), victim.Host())
	if _, err := ac.MemAlloc(victim, 1<<20); err != nil {
		fmt.Printf("MemAlloc: %v\n", err)
		return
	}

	// The accelerator's host crashes.
	c.Net.SetHostDown(victim.Host(), true)
	fmt.Printf("[%8v] *** %s crashed ***\n", now(c), victim.Host())
	if _, err := ac.MemAlloc(victim, 1<<20); err != nil {
		fmt.Printf("[%8v] operation failed as expected: %v\n", now(c), err)
	}

	// Wait for the failure detector, then acquire a replacement.
	c.Sim.Sleep(600 * time.Millisecond)
	_, repl, err := ac.Get(1)
	if err != nil {
		fmt.Printf("replacement AC_Get: %v\n", err)
		return
	}
	fmt.Printf("[%8v] replacement accelerator: %s\n", now(c), repl[0].Host())
	if _, err := ac.MemAlloc(repl[0], 1<<20); err != nil {
		fmt.Printf("replacement MemAlloc: %v\n", err)
		return
	}
	fmt.Printf("[%8v] computation resumed on %s\n", now(c), repl[0].Host())

	// Malleable growth: the job also asks for two more compute nodes
	// (the Section V extension) to spread host-side work.
	cl := repro.NewIFLClient(c.Net, env.Host, env.ServerEP)
	grant, err := cl.DynGetNodes(env.JobID, env.Host, 2, 2)
	if err != nil {
		fmt.Printf("[%8v] malleable growth rejected: %v\n", now(c), err)
		return
	}
	fmt.Printf("[%8v] malleable growth: +%d compute nodes %v (client-id %d)\n",
		now(c), len(grant.Hosts), grant.Hosts, grant.ClientID)
	c.Sim.Sleep(100 * time.Millisecond) // host-side work on the enlarged set
	if err := cl.DynFree(env.JobID, grant.ClientID); err != nil {
		fmt.Printf("DynFree: %v\n", err)
		return
	}
	fmt.Printf("[%8v] released the extra compute nodes\n", now(c))
}
