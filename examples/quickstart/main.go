// Quickstart: bring up the simulated DAC testbed, submit a job with
// two statically allocated network-attached accelerators, offload a
// vector addition to each, and print the batch system's view — the
// minimal end-to-end tour of the reproduced system.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	params := repro.DefaultParams() // 1 compute node, 6 accelerators
	err := repro.RunCluster(params, func(c *repro.Cluster, client *repro.Client) {
		// qsub -l nodes=1:ppn=2:acpn=2 jobscript.sh
		jobID, err := client.Submit(repro.JobSpec{
			Name:     "quickstart",
			Owner:    "alice",
			Nodes:    1,
			PPN:      2,
			ACPN:     2,
			Walltime: time.Minute,
			Script:   jobScript,
		})
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		fmt.Printf("submitted %s\n", jobID)

		info, err := client.Wait(jobID)
		if err != nil {
			log.Fatalf("wait: %v", err)
		}
		fmt.Printf("job state: %v\n", info.State)
		fmt.Printf("compute nodes: %v\n", info.Hosts)
		fmt.Printf("static accelerators: %v\n", info.AccHosts[0])
		fmt.Printf("turnaround: %v\n", info.CompletedAt-info.SubmittedAt)
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
}

// jobScript runs on the compute node: the Listing-1 flow of the
// paper — AC_Init, allocate, copy, launch kernel, copy back, free,
// AC_Finalize.
func jobScript(env *repro.JobEnv) {
	ac, accels, err := repro.Init(env)
	if err != nil {
		fmt.Printf("AC_Init: %v\n", err)
		return
	}
	defer ac.Finalize()
	st := ac.Stats()
	fmt.Printf("AC_Init: waited %v for daemons, %v to connect, %d accelerators\n",
		st.InitWaiting.Round(time.Millisecond), st.InitConnect.Round(time.Millisecond), len(accels))

	const n = 1 << 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(2 * i)
	}

	// Offload one vector addition per accelerator.
	for _, h := range accels {
		ap, err := ac.MemAlloc(h, 8*n)
		if err != nil {
			fmt.Printf("acMemAlloc on %s: %v\n", h.Host(), err)
			return
		}
		bp, _ := ac.MemAlloc(h, 8*n)
		cp, _ := ac.MemAlloc(h, 8*n)
		ac.MemCpyToDevice(h, ap, 0, repro.EncodeFloat64s(a))
		ac.MemCpyToDevice(h, bp, 0, repro.EncodeFloat64s(b))
		if err := ac.KernelRun(h, "vecadd", [3]int{n / 256}, [3]int{256}, cp, ap, bp, n); err != nil {
			fmt.Printf("acKernelRun on %s: %v\n", h.Host(), err)
			return
		}
		raw, err := ac.MemCpyFromDevice(h, cp, 0, 8*n)
		if err != nil {
			fmt.Printf("acMemCpy back from %s: %v\n", h.Host(), err)
			return
		}
		out := repro.DecodeFloat64s(raw)
		fmt.Printf("accelerator %s: c[1] = %.0f, c[%d] = %.0f (expect 3 and %d)\n",
			h.Host(), out[1], n-1, out[n-1], 3*(n-1))
		ac.MemFree(h, ap)
		ac.MemFree(h, bp)
		ac.MemFree(h, cp)
	}
}
