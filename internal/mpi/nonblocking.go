package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Non-blocking point-to-point operations (MPI_Isend / MPI_Irecv /
// MPI_Wait) and the remaining collectives the examples use. In the
// simulation, an Isend is genuinely asynchronous (fabric delivery is
// event-driven), and an Irecv runs its matching logic in a helper
// actor so the caller can overlap communication with computation —
// the latency-hiding pattern of the paper's Section I.

// Request is a handle for an outstanding non-blocking operation. Only
// actors touch it, so it takes no lock.
type Request struct {
	gate *sim.Gate
	done bool
	st   Status
	err  error
}

func newRequest(s *sim.Simulation) *Request {
	return &Request{gate: s.NewGate("mpi-request")}
}

func (r *Request) complete(st Status, err error) {
	r.st = st
	r.err = err
	r.done = true
	r.gate.Broadcast()
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() (Status, error) {
	for !r.done {
		r.gate.Wait(nil)
	}
	return r.st, r.err
}

// Test reports completion without blocking (MPI_Test).
func (r *Request) Test() (Status, bool, error) {
	return r.st, r.done, r.err
}

// Isend starts a non-blocking send. The fabric delivers
// asynchronously anyway, so the request completes immediately after
// the local hand-off — matching MPI's semantics that Isend completion
// only means the buffer is reusable.
func (c *Comm) Isend(dst, tag int, payload any, size int) *Request {
	r := newRequest(c.rt.sim)
	err := c.Send(dst, tag, payload, size)
	r.complete(Status{}, err)
	return r
}

// Irecv starts a non-blocking receive: a helper actor performs the
// matching so the caller keeps computing; Wait joins it.
func (c *Comm) Irecv(src, tag int) *Request {
	r := newRequest(c.rt.sim)
	c.rt.sim.GoNamed(sim.ActorName{Kind: "irecv", Subject: c.id}, func() {
		st, err := c.Recv(src, tag)
		r.complete(st, err)
	})
	return r
}

// WaitAll waits for every request and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sendrecv performs a simultaneous send and receive (MPI_Sendrecv),
// safe against the head-to-head exchange deadlock.
func (c *Comm) Sendrecv(dst, sendTag int, payload any, size int, src, recvTag int) (Status, error) {
	if err := c.Send(dst, sendTag, payload, size); err != nil {
		return Status{}, err
	}
	return c.Recv(src, recvTag)
}

// Collective tags for the additional operations.
const (
	tagScatter   = -130
	tagAllgather = -131
)

// Scatter distributes one element per rank from root's slice
// (MPI_Scatter). Every rank receives its element; non-roots pass nil.
func (c *Comm) Scatter(root int, values []any, size int) (any, error) {
	if err := c.ok(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: scatter root %d", ErrInvalidRank, root)
	}
	if c.rank == root {
		if len(values) != c.Size() {
			return nil, fmt.Errorf("mpi: Scatter with %d values for %d ranks", len(values), c.Size())
		}
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.Send(i, tagScatter, values[i], size); err != nil {
				return nil, err
			}
		}
		return values[root], nil
	}
	st, err := c.Recv(root, tagScatter)
	if err != nil {
		return nil, err
	}
	return st.Payload, nil
}

// Allgather collects one value per rank at every rank (MPI_Allgather,
// implemented as gather + broadcast).
func (c *Comm) Allgather(value any, size int) ([]any, error) {
	vals, err := c.Gather(0, value, size)
	if err != nil {
		return nil, err
	}
	out, err := c.Bcast(0, vals, size*c.Size())
	if err != nil {
		return nil, err
	}
	return out.([]any), nil
}
