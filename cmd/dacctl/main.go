// Command dacctl runs a scripted session against a simulated DAC
// cluster and prints qsub/qstat/pbsnodes-style output — a guided tour
// of the batch system from the operator's point of view.
//
// Usage:
//
//	dacctl -scenario static    # static allocation (paper Figure 5)
//	dacctl -scenario dynamic   # dynamic allocation (paper Figure 6)
//	dacctl -scenario mixed     # a small mixed workload
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/metrics"
)

func main() {
	scenario := flag.String("scenario", "dynamic", "scenario to run: static, dynamic, mixed, restart")
	cns := flag.Int("cns", 2, "compute nodes")
	acs := flag.Int("acs", 5, "network-attached accelerators")
	lspec := flag.String("l", "nodes=1:ppn=2:acpn=2,walltime=00:01:00", "qsub -l resource string for the static scenario")
	flag.Parse()

	params := repro.DefaultParams()
	params.ComputeNodes = *cns
	params.Accelerators = *acs

	var err error
	switch *scenario {
	case "static":
		err = runStatic(params, *lspec)
	case "dynamic":
		err = runDynamic(params)
	case "mixed":
		err = runMixed(params)
	case "restart":
		err = runRestart(params)
	default:
		log.Fatalf("dacctl: unknown scenario %q", *scenario)
	}
	if err != nil {
		log.Fatalf("dacctl: %v", err)
	}
}

func printNodes(client *repro.Client) {
	nodes, err := client.Nodes()
	if err != nil {
		fmt.Printf("pbsnodes: %v\n", err)
		return
	}
	t := &metrics.Table{Title: "$ pbsnodes", Headers: []string{"node", "type", "cores", "used", "jobs"}}
	for _, n := range nodes {
		t.AddRow(n.Name, n.Type.String(), fmt.Sprint(n.Cores), fmt.Sprint(n.UsedCores), fmt.Sprint(n.Jobs))
	}
	t.Render(os.Stdout)
	fmt.Println()
}

func printStat(client *repro.Client, id string) {
	info, err := client.Stat(id)
	if err != nil {
		fmt.Printf("qstat: %v\n", err)
		return
	}
	fmt.Printf("$ qstat %s\n", id)
	fmt.Printf("  name=%s owner=%s state=%s nodes=%v\n", info.Spec.Name, info.Spec.Owner, info.State, info.Hosts)
	for i, acs := range info.AccHosts {
		fmt.Printf("  static accelerators of %s: %v\n", info.Hosts[i], acs)
	}
	if len(info.DynSets) > 0 {
		fmt.Printf("  dynamic sets: %v\n", info.DynSets)
	}
	fmt.Println()
}

func runStatic(params repro.Params, lspec string) error {
	spec, err := repro.ParseResourceRequest(lspec)
	if err != nil {
		return err
	}
	fmt.Printf("== static allocation: qsub -l %s ==\n", repro.FormatResourceRequest(spec))
	return repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		hold := newHold(c)
		spec.Name, spec.Owner = "staticjob", "op"
		spec.Script = func(env *repro.JobEnv) {
			ac, hs, err := repro.Init(env)
			if err != nil {
				fmt.Printf("AC_Init: %v\n", err)
				return
			}
			defer ac.Finalize()
			st := ac.Stats()
			fmt.Printf("[app] AC_Init complete: waiting=%v connect=%v accelerators=%d\n",
				st.InitWaiting.Round(time.Millisecond), st.InitConnect.Round(time.Millisecond), len(hs))
			hold.wait()
		}
		id, err := client.Submit(spec)
		if err != nil {
			fmt.Printf("qsub: %v\n", err)
			return
		}
		fmt.Printf("$ qsub ... -> %s\n\n", id)
		c.Sim.Sleep(600 * time.Millisecond) // let it start
		printStat(client, id)
		printNodes(client)
		hold.release()
		client.Wait(id)
		fmt.Println("== after job completion ==")
		printNodes(client)
	})
}

func runDynamic(params repro.Params) error {
	fmt.Println("== dynamic allocation: AC_Get / AC_Free at runtime ==")
	return repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		hold := newHold(c)
		got := newHold(c)
		id, err := client.Submit(repro.JobSpec{
			Name: "dynjob", Owner: "op", Nodes: 1, PPN: 2, ACPN: 1, Walltime: time.Minute,
			Script: func(env *repro.JobEnv) {
				ac, _, err := repro.Init(env)
				if err != nil {
					fmt.Printf("AC_Init: %v\n", err)
					return
				}
				defer ac.Finalize()
				clientID, hs, err := ac.Get(2)
				if err != nil {
					fmt.Printf("[app] AC_Get rejected: %v\n", err)
					return
				}
				st := ac.Stats()
				fmt.Printf("[app] AC_Get(2) -> client-id %d, hosts %v (batch=%v, mpi=%v)\n",
					clientID, hostNames(hs), st.Gets[0].Batch.Round(time.Millisecond), st.Gets[0].MPI.Round(time.Millisecond))
				got.release()
				hold.wait()
				if err := ac.Free(clientID); err != nil {
					fmt.Printf("[app] AC_Free: %v\n", err)
					return
				}
				fmt.Printf("[app] AC_Free(%d) done\n", clientID)
			},
		})
		if err != nil {
			fmt.Printf("qsub: %v\n", err)
			return
		}
		fmt.Printf("$ qsub ... -> %s\n\n", id)
		got.wait()
		fmt.Println("== while the dynamic set is held ==")
		printStat(client, id)
		printNodes(client)
		hold.release()
		info, _ := client.Wait(id)
		fmt.Println("== after release and completion ==")
		printNodes(client)
		for _, rec := range info.DynRecords {
			fmt.Printf("server record: req#%d count=%d %s arrive=%v replied=%v freed=%v\n",
				rec.ReqID, rec.Count, rec.State,
				rec.ArrivedAt.Round(time.Millisecond), rec.RepliedAt.Round(time.Millisecond), rec.FreedAt.Round(time.Millisecond))
		}
	})
}

func runMixed(params repro.Params) error {
	fmt.Println("== mixed workload: 6 jobs through the queue ==")
	return repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		gen := repro.NewWorkloadGenerator(c.Sim, 7, 50*time.Millisecond, repro.DefaultWorkloadClasses())
		trace := repro.RecordTrace(gen, 6)
		ids, err := repro.ReplayTrace(c.Sim, client, trace)
		if err != nil {
			fmt.Printf("replay: %v\n", err)
			return
		}
		t := &metrics.Table{Title: "$ qstat (final)", Headers: []string{"job", "name", "state", "queued_ms", "ran_ms"}}
		g := metrics.Gantt{Title: "timeline ('.' queued, '#' running)", Width: 60}
		for _, id := range ids {
			info, err := client.Wait(id)
			if err != nil {
				fmt.Printf("wait: %v\n", err)
				return
			}
			t.AddRow(info.ID, info.Spec.Name, info.State.String(),
				metrics.Ms(info.StartedAt-info.SubmittedAt), metrics.Ms(info.CompletedAt-info.StartedAt))
			g.Add(info.Spec.Name, info.SubmittedAt, info.StartedAt, info.CompletedAt)
		}
		t.Render(os.Stdout)
		fmt.Println()
		g.Render(os.Stdout)
	})
}

func runRestart(params repro.Params) error {
	fmt.Println("== head-node failover: checkpoint, crash, restore ==")
	return repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
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
			fmt.Printf("qsub: %v\n", err)
			return
		}
		c.Sim.Sleep(250 * time.Millisecond)
		fmt.Printf("[%v] job %s running; taking serverdb checkpoint\n", c.Sim.Now().Round(time.Millisecond), id)
		snap := c.Server.Checkpoint()
		c.Server.Stop()
		fmt.Printf("[%v] *** pbs_server crashed ***\n", c.Sim.Now().Round(time.Millisecond))
		c.Sim.Sleep(50 * time.Millisecond)

		replacement := repro.NewServer(c.Net, params.Server)
		replacement.SetScheduler(c.Sched.Endpoint())
		if err := replacement.Restore(snap); err != nil {
			fmt.Printf("restore: %v\n", err)
			return
		}
		replacement.Start()
		fmt.Printf("[%v] replacement server restored %d job(s), %d node(s)\n",
			c.Sim.Now().Round(time.Millisecond), len(snap.Jobs), len(snap.Nodes))

		info, err := client.Wait(id)
		if err != nil {
			fmt.Printf("wait: %v\n", err)
			return
		}
		fmt.Printf("[%v] job finished in state %v — the application never noticed\n",
			c.Sim.Now().Round(time.Millisecond), info.State)
		printNodes(client)
	})
}

func hostNames(hs []*repro.Accel) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Host()
	}
	return out
}

// hold is a one-shot release latch for pacing scripted scenarios.
type hold struct {
	c  *repro.Cluster
	ch *holdState
}

type holdState struct {
	released bool
}

func newHold(c *repro.Cluster) *hold {
	return &hold{c: c, ch: &holdState{}}
}

func (h *hold) release() { h.ch.released = true }

func (h *hold) wait() {
	for !h.ch.released {
		h.c.Sim.Sleep(10 * time.Millisecond)
	}
}
