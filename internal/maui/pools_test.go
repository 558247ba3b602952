package maui

import (
	"testing"

	"repro/internal/pbs"
)

func nodes(cns, acs int) []pbs.NodeInfo {
	var out []pbs.NodeInfo
	for i := 0; i < cns; i++ {
		out = append(out, pbs.NodeInfo{Name: cn(i), Type: pbs.ComputeNode, Cores: 8})
	}
	for i := 0; i < acs; i++ {
		out = append(out, pbs.NodeInfo{Name: ac(i), Type: pbs.AcceleratorNode, Cores: 1})
	}
	return out
}

func cn(i int) string { return "cn" + string(rune('0'+i)) }
func ac(i int) string { return "ac" + string(rune('0'+i)) }

// builtPools returns partition part of stride over a mirror holding
// the given table, every node of the partition synced.
func builtPools(ns []pbs.NodeInfo, part, stride int) *pools {
	p := newPools(&pbs.Mirror{Nodes: ns}, part, stride)
	for l := 0; l*stride+part < len(ns); l++ {
		p.sync(l)
	}
	return p
}

func newTestPools(ns []pbs.NodeInfo) *pools { return builtPools(ns, 0, 1) }

// freeCores reports the free cores the pool holds for a compute node
// (0 for a node it does not own).
func (p *pools) freeCores(name string) int {
	for l := range p.cns {
		if p.node(l).Name == name {
			return p.cns[l].free
		}
	}
	return 0
}

func TestPoolsFitSingleNode(t *testing.T) {
	p := newTestPools(nodes(2, 0))
	hosts, acc, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 4}, "tj")
	if !ok || len(hosts) != 1 || len(acc) != 0 {
		t.Fatalf("fit = %v %v %v", hosts, acc, ok)
	}
	if p.freeCores(hosts[0]) != 4 {
		t.Fatalf("free cores = %d, want 4", p.freeCores(hosts[0]))
	}
}

func TestPoolsFitMultiNodeWithAccelerators(t *testing.T) {
	p := newTestPools(nodes(3, 6))
	hosts, acc, ok := p.fit(pbs.JobSpec{Nodes: 2, PPN: 8, ACPN: 3}, "tj")
	if !ok {
		t.Fatal("fit failed")
	}
	if len(hosts) != 2 {
		t.Fatalf("hosts = %v", hosts)
	}
	total := 0
	for i, cn := range hosts {
		if len(acc[i]) != 3 {
			t.Fatalf("acc[%s] = %v", cn, acc[i])
		}
		total += len(acc[i])
	}
	if total != 6 || p.nACs != 0 {
		t.Fatalf("accelerators not fully assigned: %v free %d", acc, p.nACs)
	}
}

func TestPoolsFitInsufficientComputeNodes(t *testing.T) {
	p := newTestPools(nodes(1, 0))
	if _, _, ok := p.fit(pbs.JobSpec{Nodes: 2, PPN: 1}, "tj"); ok {
		t.Fatal("fit should fail with 1 CN for a 2-node job")
	}
	// Failure must not consume resources.
	if p.freeCores("cn0") != 8 {
		t.Fatalf("failed fit consumed cores: %d", p.freeCores("cn0"))
	}
}

func TestPoolsFitInsufficientAccelerators(t *testing.T) {
	p := newTestPools(nodes(1, 2))
	if _, _, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 1, ACPN: 3}, "tj"); ok {
		t.Fatal("fit should fail: 3 ACs requested, 2 free")
	}
	if p.nACs != 2 || p.freeCores("cn0") != 8 {
		t.Fatal("failed fit consumed resources")
	}
}

func TestPoolsFitInsufficientCores(t *testing.T) {
	ns := nodes(1, 0)
	ns[0].UsedCores = 6
	p := newTestPools(ns)
	if _, _, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 4}, "tj"); ok {
		t.Fatal("fit should fail: 4 cores requested, 2 free")
	}
	if _, _, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 2}, "tj"); !ok {
		t.Fatal("fit should succeed with 2 free cores")
	}
}

func TestPoolsFitSkipsBusyAccelerators(t *testing.T) {
	ns := nodes(1, 2)
	ns[1].Jobs = []string{"1.srv"} // ac0 busy
	p := newTestPools(ns)
	_, acc, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 1, ACPN: 1}, "tj")
	if !ok {
		t.Fatal("fit failed")
	}
	if acc[0][0] != "ac1" {
		t.Fatalf("assigned busy accelerator: %v", acc)
	}
}

func TestTakeACs(t *testing.T) {
	p := newTestPools(nodes(0, 3))
	got := p.takeACs(2)
	if len(got) != 2 || p.nACs != 1 {
		t.Fatalf("takeACs = %v, remaining %d", got, p.nACs)
	}
	if p.takeACs(2) != nil {
		t.Fatal("takeACs should fail when short")
	}
	if got := p.takeACs(1); len(got) != 1 {
		t.Fatalf("takeACs(1) = %v", got)
	}
	if got := p.takeACs(0); len(got) != 0 {
		t.Fatalf("takeACs(0) = %v, want empty", got)
	}
}

func TestTakeCNsMalleable(t *testing.T) {
	ns := nodes(3, 0)
	ns[0].Jobs = []string{"1.srv"} // cn0 partially used by the requesting job
	ns[0].UsedCores = 4
	p := newTestPools(ns)
	got := p.takeCNs(2, 4, "1.srv")
	if len(got) != 2 {
		t.Fatalf("takeCNs = %v", got)
	}
	for _, cn := range got {
		if cn == "cn0" {
			t.Fatalf("granted the job's own node: %v", got)
		}
	}
	if p.freeCores("cn1") != 4 || p.freeCores("cn2") != 4 {
		t.Fatalf("cores not committed: %d/%d", p.freeCores("cn1"), p.freeCores("cn2"))
	}
}

func TestTakeCNsInsufficient(t *testing.T) {
	p := newTestPools(nodes(2, 0))
	if got := p.takeCNs(3, 1, "j"); got != nil {
		t.Fatalf("takeCNs should fail, got %v", got)
	}
	if p.freeCores("cn0") != 8 || p.freeCores("cn1") != 8 {
		t.Fatal("failed takeCNs consumed cores")
	}
	if got := p.takeCNs(1, 9, "j"); got != nil {
		t.Fatalf("ppn beyond capacity should fail, got %v", got)
	}
	if got := p.takeCNs(1, 0, "j"); got != nil {
		t.Fatalf("non-positive ppn should fail, got %v", got)
	}
}

func TestTakeCNsSkipsDownNodes(t *testing.T) {
	ns := nodes(2, 0)
	ns[0].Down = true
	p := newTestPools(ns)
	got := p.takeCNs(1, 1, "j")
	if len(got) != 1 || got[0] != "cn1" {
		t.Fatalf("takeCNs = %v, want [cn1]", got)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if !p.DynTopPriority || !p.Backfill {
		t.Fatal("defaults should enable DynTopPriority and Backfill")
	}
	if p.Endpoint != DefaultEndpoint {
		t.Fatalf("endpoint = %q", p.Endpoint)
	}
}

// A node whose view reports more used cores than it has (or fewer than
// none) is a fault for the audit to report (view.capacity), not one the
// level index may be indexed with: the node offers nothing, or no more
// than it has, and placement carries on around it.
func TestPoolsSyncClampsAViewOutsideCapacity(t *testing.T) {
	ns := nodes(3, 0)
	ns[0].UsedCores = 9  // one more than its 8 cores
	ns[1].UsedCores = -2 // fewer than none
	p := newTestPools(ns)
	if got := p.freeCores("cn0"); got != 0 {
		t.Errorf("over-committed node offers %d cores, want 0", got)
	}
	if got := p.freeCores("cn1"); got != 8 {
		t.Errorf("node with negative usage offers %d cores, want its 8", got)
	}
	hosts, _, ok := p.fit(pbs.JobSpec{Nodes: 2, PPN: 8}, "tj")
	if !ok || len(hosts) != 2 || hosts[0] != "cn1" || hosts[1] != "cn2" {
		t.Fatalf("fit = %v %v, want [cn1 cn2]", hosts, ok)
	}
	// The repaired view brings the node back through the same sync.
	ns[0].UsedCores = 2
	p.sync(0)
	if got := p.freeCores("cn0"); got != 6 {
		t.Errorf("repaired node offers %d cores, want 6", got)
	}
	if hosts, _, ok := p.fit(pbs.JobSpec{Nodes: 1, PPN: 6}, "tk"); !ok || hosts[0] != "cn0" {
		t.Errorf("fit after the repair = %v %v, want [cn0]", hosts, ok)
	}
}
