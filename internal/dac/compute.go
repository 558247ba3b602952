package dac

import (
	"errors"
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// The computation API of Section II-C: allocate device memory, copy
// data to and from the accelerator, and launch kernels — the
// front-end counterpart of acMemAlloc / acMemCpy / acKernelRun in
// Listing 1. Every call addresses one accelerator through its handle
// and blocks until the daemon replies. Calls to different
// accelerators may run concurrently from separate actors, which is
// how applications overlap transfers and kernels (latency hiding).

// roundTrip sends one request to the daemon behind h and waits for
// its reply. sendSize is the simulated request payload size. Every
// round trip is a span ("op.kernel", "op.copyin", ...) on the
// application's track, so kernel offloads and transfers appear on the
// timeline with their full request/reply latency.
func (ac *AC) roundTrip(h *Accel, req opRequest, sendSize int) (opReply, error) {
	var sp *trace.Span
	if trc := ac.ctx.Sim.Tracer(); trc != nil {
		sp = trc.Start(ac.track(), "op."+req.Op, "ac", h.host)
		if req.Kernel != "" {
			sp.Annotate("kernel", req.Kernel)
		}
	}
	defer sp.End()
	if ac.finalized {
		return opReply{}, ErrFinalized
	}
	rank, ok := ac.rankOf[h.id]
	if !ok {
		return opReply{}, fmt.Errorf("%w: %v", ErrUnknownHandle, h)
	}
	comm := ac.comm
	ac.nextSeq++
	req.Seq = replyTagBase + ac.nextSeq

	var err error
	if sendSize > 0 {
		err = comm.SendPipelined(rank, opTag, req, sendSize)
	} else {
		err = comm.Send(rank, opTag, req, 0)
	}
	if err != nil {
		return opReply{}, fmt.Errorf("dac: request to accelerator %s: %w", h.host, err)
	}
	var st mpi.Status
	if timeout := ac.ctx.Params.OpTimeout; timeout > 0 {
		st, err = comm.RecvTimeout(rank, req.Seq, timeout)
	} else {
		st, err = comm.Recv(rank, req.Seq)
	}
	if err != nil {
		return opReply{}, fmt.Errorf("dac: reply from accelerator %s: %w", h.host, err)
	}
	reply := st.Payload.(opReply)
	if reply.Err != "" {
		return reply, errors.New(reply.Err)
	}
	return reply, nil
}

// MemAlloc allocates size bytes of device memory on the accelerator
// (acMemAlloc).
func (ac *AC) MemAlloc(h *Accel, size int64) (gpusim.Ptr, error) {
	reply, err := ac.roundTrip(h, opRequest{Op: "malloc", Size: size}, 0)
	if err != nil {
		return 0, err
	}
	return reply.Ptr, nil
}

// MemFree releases device memory (acMemFree).
func (ac *AC) MemFree(h *Accel, ptr gpusim.Ptr) error {
	_, err := ac.roundTrip(h, opRequest{Op: "free", Ptr: ptr}, 0)
	return err
}

// MemCpyToDevice copies host data into device memory at ptr+offset
// (acMemCpy, host-to-device). Large transfers use the pipelined bulk
// protocol of the DAC communication layer.
func (ac *AC) MemCpyToDevice(h *Accel, ptr gpusim.Ptr, offset int64, data []byte) error {
	_, err := ac.roundTrip(h, opRequest{Op: "copyin", Ptr: ptr, Offset: offset, Data: data}, len(data))
	return err
}

// MemCpyFromDevice copies n bytes from device memory at ptr+offset
// back to the host (acMemCpy, device-to-host).
func (ac *AC) MemCpyFromDevice(h *Accel, ptr gpusim.Ptr, offset, n int64) ([]byte, error) {
	reply, err := ac.roundTrip(h, opRequest{Op: "copyout", Ptr: ptr, Offset: offset, Size: n}, 0)
	if err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// KernelRun launches a registered kernel on the accelerator
// (acKernelCreate + acKernelSetArgs + acKernelRun collapsed into one
// call; the kernel registry plays the role of pre-compiled modules).
func (ac *AC) KernelRun(h *Accel, kernel string, grid, block [3]int, args ...any) error {
	_, err := ac.roundTrip(h, opRequest{Op: "kernel", Kernel: kernel, Grid: grid, Block: block, Args: args}, 0)
	return err
}

// Kernel is a staged launch handle, matching the paper's Listing 1
// call sequence: acKernelCreate, acKernelSetArgs, acKernelRun.
type Kernel struct {
	ac   *AC
	h    *Accel
	name string
	args []any
}

// KernelCreate prepares a kernel for launching on the accelerator
// (acKernelCreate). It validates nothing remotely: like CUDA module
// lookup, unknown names fail at launch.
func (ac *AC) KernelCreate(h *Accel, name string) *Kernel {
	return &Kernel{ac: ac, h: h, name: name}
}

// SetArgs installs the launch arguments (acKernelSetArgs), replacing
// any previous set. It returns the kernel for chaining.
func (k *Kernel) SetArgs(args ...any) *Kernel {
	k.args = append(k.args[:0], args...)
	return k
}

// Run launches the kernel with the given geometry (acKernelRun) and
// blocks until the daemon reports completion.
func (k *Kernel) Run(grid, block [3]int) error {
	return k.ac.KernelRun(k.h, k.name, grid, block, k.args...)
}
