package dac

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/mpi"
	"repro/internal/pbs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Accel is the unique handle identifying one allocated accelerator
// (the paper's ac_handle). Handles remain valid across dynamic
// allocations and releases; the library re-maps them to communicator
// ranks internally, mirroring the "updated handles" of Section III-D.
type Accel struct {
	id   int
	host string
}

// Host returns the accelerator's host name.
func (a *Accel) Host() string { return a.host }

// GetStat decomposes one AC_Get call the way Figure 7(b) does: the
// batch-system share (pbs_dynget round trip: scheduling, DYNJOIN,
// reply) and the resource-management-library share (MPI spawn and
// communicator merge).
type GetStat struct {
	Count    int
	Batch    time.Duration
	MPI      time.Duration
	Rejected bool
}

// Stats aggregates the library's timing observations for the
// experiments.
type Stats struct {
	// InitWaiting is AC_Init's wait for the accelerator daemons to
	// become ready (dark region of Figure 7(a)).
	InitWaiting time.Duration
	// InitConnect is AC_Init's communicator construction time (light
	// region of Figure 7(a)).
	InitConnect time.Duration
	// Gets records every AC_Get decomposition (Figure 7(b)).
	Gets []GetStat
}

// AC is the per-application handle of the DAC resource management
// library (one per compute-node process).
type AC struct {
	ctx  *Context
	env  *pbs.JobEnv
	proc *mpi.Proc
	ifl  *pbs.Client

	inst acInstruments

	comm      *mpi.Comm
	handles   map[int]*Accel
	rankOf    map[int]int    // handle id -> communicator rank
	sets      map[int]dynSet // by client-id
	staticIDs []int
	staticAt  time.Duration
	nextID    int
	nextSeq   int
	gen       int
	finalized bool
	stats     Stats
}

// dynSet is one dynamically allocated set: its handles, numbered
// consecutively from first, and when it was attached.
type dynSet struct {
	first, n int
	at       time.Duration
}

// addSet records the set of the n handles spawnAndMerge numbered last.
func (ac *AC) addSet(clientID, n int, at time.Duration) {
	ac.sets[clientID] = dynSet{first: ac.nextID - n + 1, n: n, at: at}
}

// exitRequest is the one boxed "exit" every release sends.
var exitRequest any = opRequest{Op: "exit"}

// acInstruments are the library's live metrics: attach/detach counts,
// currently attached accelerators, and busy-time accounting per
// allocation class. Utilization accrues when a set is released (or at
// Finalize), so cumulative ratios are exact while a window's ratio
// attributes a whole interval to the window it completes in.
type acInstruments struct {
	attach      *telemetry.Counter
	detach      *telemetry.Counter
	attached    *telemetry.Gauge
	utilStatic  *telemetry.Occupancy
	utilDynamic *telemetry.Occupancy
}

// Init is AC_Init: it connects the compute-node process with the
// daemons of its statically allocated accelerators and returns the
// library handle plus one accelerator handle per static accelerator.
// With no static accelerators it still initializes the library so
// that AC_Get can be used.
func Init(env *pbs.JobEnv) (*AC, []*Accel, error) {
	ctx, err := FromEnv(env)
	if err != nil {
		return nil, nil, err
	}
	reg := ctx.Sim.Telemetry()
	ac := &AC{
		ctx:     ctx,
		env:     env,
		proc:    ctx.MPI.Attach(env.Host),
		ifl:     pbs.NewClient(ctx.Net, env.Host, env.ServerEP),
		handles: make(map[int]*Accel),
		rankOf:  make(map[int]int),
		sets:    make(map[int]dynSet),
		inst: acInstruments{
			attach:      reg.Counter("dac.attach"),
			detach:      reg.Counter("dac.detach"),
			attached:    reg.Gauge("dac.attached"),
			utilStatic:  reg.Occupancy("dac.util_static"),
			utilDynamic: reg.Occupancy("dac.util_dynamic"),
		},
	}
	ac.comm = ac.proc.World()
	if len(env.AccHosts) == 0 {
		return ac, nil, nil
	}
	var sp *trace.Span
	if trc := ctx.Sim.Tracer(); trc != nil {
		sp = trc.Start(ac.track(), "ac.init",
			"job", env.JobID, "acs", strconv.Itoa(len(env.AccHosts)))
	}
	sp.Link(env.TaskSpan) // the job.run task this setup belongs to
	defer sp.End()

	// Waiting phase: the daemons were launched by the mother
	// superior; wait until they are ready to accept a connection.
	wait := sp.Child("wait_port")
	start := ctx.Sim.Now()
	port := ctx.waitPort(env.JobID, env.Host)
	ac.stats.InitWaiting = ctx.Sim.Now() - start
	wait.End()

	// Connect phase: MPI_Comm_connect/accept plus intercomm merge.
	// The child span must end on the error paths too, or the trace
	// leaks an open span (caught by the spanbalance analyzer).
	conn := sp.Child("connect")
	start = ctx.Sim.Now()
	inter, err := ac.proc.Connect(port, ac.proc.World())
	ctx.unpublishPort(env.JobID, env.Host)
	if err != nil {
		conn.End()
		return nil, nil, fmt.Errorf("dac: AC_Init connect: %w", err)
	}
	intra, err := inter.Merge(false)
	if err != nil {
		conn.End()
		return nil, nil, fmt.Errorf("dac: AC_Init merge: %w", err)
	}
	ac.stats.InitConnect = ctx.Sim.Now() - start
	conn.End()

	ac.comm = intra
	accels := make([]*Accel, len(env.AccHosts))
	for i, host := range env.AccHosts {
		h := ac.newHandle(host, i+1)
		ac.staticIDs = append(ac.staticIDs, h.id)
		accels[i] = h
	}
	ac.staticAt = ctx.Sim.Now()
	ac.inst.attach.Add(int64(len(accels)))
	ac.inst.attached.Add(float64(len(accels)))
	return ac, accels, nil
}

// newHandle registers a handle mapped to a communicator rank.
func (ac *AC) newHandle(host string, rank int) *Accel {
	ac.nextID++
	h := &Accel{id: ac.nextID, host: host}
	ac.handles[h.id] = h
	ac.rankOf[h.id] = rank
	return h
}

// Stats returns the library's timing observations.
func (ac *AC) Stats() Stats {
	out := ac.stats
	out.Gets = append([]GetStat(nil), ac.stats.Gets...)
	return out
}

// Handles returns all currently associated accelerator handles in
// rank order.
func (ac *AC) Handles() []*Accel {
	ids := make([]int, 0, len(ac.handles))
	for id := range ac.handles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ac.rankOf[ids[a]] < ac.rankOf[ids[b]] })
	out := make([]*Accel, 0, len(ids))
	for _, id := range ids {
		out = append(out, ac.handles[id])
	}
	return out
}

// Get is AC_Get: request count additional network-attached
// accelerators from the batch system at runtime. On success it
// returns the client-id of the dynamically allocated set and its
// handles. On rejection (not enough accelerators) it returns an error
// and the application continues with its existing set.
func (ac *AC) Get(count int) (int, []*Accel, error) {
	if ac.finalized {
		return 0, nil, ErrFinalized
	}
	var sp *trace.Span
	if trc := ac.ctx.Sim.Tracer(); trc != nil {
		sp = trc.Start(ac.track(), "ac.get",
			"job", ac.env.JobID, "count", strconv.Itoa(count))
	}
	defer sp.End()

	// Batch-system share: pbs_dynget blocks until the server replies.
	bsp := sp.Child("batch")
	start := ac.ctx.Sim.Now()
	grant, err := ac.ifl.DynGet(ac.env.JobID, ac.env.Host, count)
	batch := ac.ctx.Sim.Now() - start
	bsp.End()
	if err != nil {
		sp.Annotate("outcome", "rejected")
		ac.stats.Gets = append(ac.stats.Gets, GetStat{Count: count, Batch: batch, Rejected: true})
		return 0, nil, fmt.Errorf("dac: AC_Get: %w", err)
	}

	// Library share: spawn the daemons and rebuild the communicator.
	msp := sp.Child("mpi")
	start = ac.ctx.Sim.Now()
	handles, err := ac.spawnAndMerge(grant.Hosts)
	mpiT := ac.ctx.Sim.Now() - start
	msp.End()
	if err != nil {
		return 0, nil, err
	}
	ac.addSet(grant.ClientID, len(handles), ac.ctx.Sim.Now())
	ac.stats.Gets = append(ac.stats.Gets, GetStat{Count: count, Batch: batch, MPI: mpiT})
	ac.ctx.Sim.Audit().Record(audit.KindAlloc, "dac", ac.env.JobID, "attach", int64(len(handles)), int64(grant.ClientID))
	ac.inst.attach.Add(int64(len(handles)))
	ac.inst.attached.Add(float64(len(handles)))
	return grant.ClientID, handles, nil
}

// spawnAndMerge performs the MPI share of a dynamic allocation: tell
// the existing daemons to participate, collectively spawn the new
// ones, and merge everything into one intracommunicator where old
// ranks persist and the new accelerators take ranks x+1..x+y.
func (ac *AC) spawnAndMerge(hosts []string) ([]*Accel, error) {
	comm := ac.comm
	var buf [8]int
	for _, r := range ac.daemonRanks(buf[:0]) {
		if err := comm.Send(r, opTag, opRequest{Op: "spawn", Hosts: hosts}, 0); err != nil {
			return nil, fmt.Errorf("dac: spawn control: %w", err)
		}
	}
	inter, err := comm.SpawnCollective(SpawnCommand, nil, hosts)
	if err != nil {
		return nil, fmt.Errorf("dac: MPI_Comm_spawn: %w", err)
	}
	next, err := inter.Merge(false)
	if err != nil {
		return nil, fmt.Errorf("dac: merge: %w", err)
	}

	base := comm.Size() // old group size; new ranks follow
	ac.comm = next
	accels := make([]Accel, len(hosts))
	handles := make([]*Accel, len(hosts))
	for i, host := range hosts {
		ac.nextID++
		h := &accels[i]
		*h = Accel{id: ac.nextID, host: host}
		ac.handles[h.id] = h
		ac.rankOf[h.id] = base + i
		handles[i] = h
	}
	return handles, nil
}

// daemonRanks appends the communicator ranks of all currently
// associated daemons (everything but rank 0) to buf, in order.
func (ac *AC) daemonRanks(buf []int) []int {
	for _, r := range ac.rankOf {
		buf = append(buf, r)
	}
	sort.Ints(buf)
	return buf
}

// Free is AC_Free: release the dynamically allocated set identified
// by clientID. The compute node first disconnects from the daemons
// (they exit), shrinks the communicator, and then notifies the batch
// system through pbs_dynfree; the server's disassociation proceeds
// while the application continues (Section III-D).
func (ac *AC) Free(clientID int) error {
	var sp *trace.Span
	if trc := ac.ctx.Sim.Tracer(); trc != nil {
		sp = trc.Start(ac.track(), "ac.free",
			"job", ac.env.JobID, "client", strconv.Itoa(clientID))
	}
	defer sp.End()
	if err := ac.releaseLocal(clientID); err != nil {
		return err
	}
	// Batch-system notification; positive reply returns immediately.
	if err := ac.ifl.DynFree(ac.env.JobID, clientID); err != nil {
		return fmt.Errorf("dac: pbs_dynfree: %w", err)
	}
	return nil
}

// track names the library's observability track, one per compute-node
// process so concurrent applications render on separate timelines.
func (ac *AC) track() string { return "dac@" + ac.env.Host }

// releaseLocal performs the library-side half of AC_Free: disconnect
// the set's daemons and shrink the communicator.
func (ac *AC) releaseLocal(clientID int) error {
	if ac.finalized {
		return ErrFinalized
	}
	set, ok := ac.sets[clientID]
	if !ok {
		return fmt.Errorf("%w: client-id %d", ErrUnknownSet, clientID)
	}
	delete(ac.sets, clientID)
	heldFor := ac.ctx.Sim.Now() - set.at
	ac.ctx.Sim.Audit().Record(audit.KindRelease, "dac", ac.env.JobID, "detach", int64(set.n), int64(clientID))
	comm := ac.comm
	// The set's ranks, the kept ranks and the daemons' ranks, kept off
	// the heap for the usual sizes.
	var buf, keepBuf, ranksBuf [8]int
	released := buf[:0]
	for id := set.first; id < set.first+set.n; id++ {
		released = append(released, ac.rankOf[id])
	}

	// Disconnect: the released daemons exit, in rank order so that their
	// messages take their seqs the same way every run.
	sort.Ints(released)
	for _, r := range released {
		if err := comm.Send(r, opTag, exitRequest, 0); err != nil {
			return fmt.Errorf("dac: release: %w", err)
		}
	}

	// Shrink the communicator to the remaining members, renumbering
	// ranks densely. Handle ids stay stable; their ranks re-map.
	keep := append(keepBuf[:0], 0)
	for _, r := range ac.daemonRanks(ranksBuf[:0]) {
		if !slices.Contains(released, r) {
			keep = append(keep, r)
		}
	}
	ac.gen++
	gen := ac.gen
	var shrink any // one request, boxed for the first kept daemon
	for _, r := range keep[1:] {
		if shrink == nil {
			shrink = opRequest{Op: "shrink", Keep: slices.Clone(keep), Gen: gen}
		}
		if err := comm.Send(r, opTag, shrink, 0); err != nil {
			return fmt.Errorf("dac: shrink control: %w", err)
		}
	}
	next, err := comm.Shrink(keep, gen)
	if err != nil {
		return fmt.Errorf("dac: shrink: %w", err)
	}

	ac.comm = next
	newRank := make(map[int]int, len(keep)) // old rank -> new rank
	for nr, or := range keep {
		newRank[or] = nr
	}
	for id := set.first; id < set.first+set.n; id++ {
		delete(ac.handles, id)
		delete(ac.rankOf, id)
	}
	for id, r := range ac.rankOf {
		ac.rankOf[id] = newRank[r]
	}
	ac.inst.detach.Add(int64(set.n))
	ac.inst.attached.Add(-float64(set.n))
	ac.inst.utilDynamic.OnFor(heldFor * time.Duration(set.n))
	return nil
}

// Finalize is AC_Finalize: it must be called at the end and releases
// all associated accelerators (static and dynamic). The daemons exit;
// the batch system reclaims the hosts when the job terminates.
func (ac *AC) Finalize() error {
	if ac.finalized {
		return ErrFinalized
	}
	ac.finalized = true
	comm := ac.comm
	var buf [8]int
	ranks := ac.daemonRanks(buf[:0])
	// Settle the utilization accounting: dynamic sets still held
	// accrue busy time until now, and the static set covers Init
	// through Finalize.
	now := ac.ctx.Sim.Now()
	var detached int
	for _, set := range ac.sets {
		ac.inst.utilDynamic.OnFor((now - set.at) * time.Duration(set.n))
		detached += set.n
	}
	if len(ac.staticIDs) > 0 {
		ac.inst.utilStatic.OnFor((now - ac.staticAt) * time.Duration(len(ac.staticIDs)))
		detached += len(ac.staticIDs)
	}
	ac.inst.detach.Add(int64(detached))
	ac.inst.attached.Add(-float64(detached))
	for _, r := range ranks {
		_ = comm.Send(r, opTag, exitRequest, 0)
	}
	ac.ifl.Close()
	ac.proc.Detach()
	return nil
}
