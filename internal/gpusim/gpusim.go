// Package gpusim models the CUDA-enabled GPU of a network-attached
// accelerator (paper Figure 1(b)): a device memory space, host/device
// copies, and kernels executed under a roofline timing model.
//
// The paper's batch-system evaluation "did not require the physical
// presence of an accelerator"; the examples in this repository do
// offload work, so the device model is functional — kernels are Go
// functions operating on simulated device buffers — while execution
// time follows max(flops/peak, bytes/bandwidth) + launch overhead.
package gpusim

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/sim"
)

// Common device errors.
var (
	ErrOutOfMemory   = errors.New("gpusim: out of device memory")
	ErrBadPointer    = errors.New("gpusim: invalid device pointer")
	ErrUnknownKernel = errors.New("gpusim: unknown kernel")
	ErrBadCopy       = errors.New("gpusim: copy out of bounds")
)

// Ptr is a device memory handle.
type Ptr uint64

// Perf is the device performance model.
type Perf struct {
	// GFLOPS is peak compute throughput in 1e9 floating-point
	// operations per second.
	GFLOPS float64
	// MemBandwidthBps is device memory bandwidth in bytes per second.
	MemBandwidthBps float64
	// KernelLaunch is the fixed launch overhead per kernel.
	KernelLaunch time.Duration
}

// DefaultPerf resembles a Fermi-class GPU of the paper's era
// (Tesla C2050: ~515 GFLOPS double precision, ~144 GB/s).
func DefaultPerf() Perf {
	return Perf{GFLOPS: 515, MemBandwidthBps: 144e9, KernelLaunch: 10 * time.Microsecond}
}

// Cost describes the work a kernel performed, used to charge
// execution time.
type Cost struct {
	FLOPs   float64
	BytesRW float64
}

// KernelFunc is a device kernel. It receives the launching context to
// read and write device memory and returns the work it performed.
type KernelFunc func(ctx *KernelCtx) (Cost, error)

// registry is the global kernel registry (mirrors compiled CUDA
// modules being available on every device). Every simulation of the
// process reads it, so it is copied on write: a lookup loads the map,
// and a registration swaps in a copy.
var registry atomic.Pointer[map[string]KernelFunc]

// RegisterKernel installs a kernel under a name. Re-registering a
// name replaces the previous kernel. It is safe for concurrent use.
func RegisterKernel(name string, fn KernelFunc) {
	for {
		old := registry.Load()
		m := map[string]KernelFunc{}
		if old != nil {
			m = maps.Clone(*old)
		}
		m[name] = fn
		if registry.CompareAndSwap(old, &m) {
			return
		}
	}
}

func lookupKernel(name string) (KernelFunc, bool) {
	m := registry.Load()
	if m == nil {
		return nil, false
	}
	fn, ok := (*m)[name]
	return fn, ok
}

type buffer struct {
	data []byte
}

// Device is one simulated GPU.
type Device struct {
	sim  *sim.Simulation
	name string
	perf Perf

	// aud is the flight recorder (nil when auditing is off).
	aud *audit.Recorder

	memTotal int64
	memUsed  int64
	next     uint64
	allocs   map[Ptr]*buffer // made by the first Malloc
	launched int64
}

// NewDevice creates a device with the given memory capacity.
func NewDevice(s *sim.Simulation, name string, memBytes int64, perf Perf) *Device {
	return &NewDevices(s, []string{name}, memBytes, perf)[0]
}

// NewDevices creates one device per name, in order, as one block: a
// cluster's accelerators cost one object, not one each. A device's
// digest is registered only when a recorder is installed.
func NewDevices(s *sim.Simulation, names []string, memBytes int64, perf Perf) []Device {
	devs := make([]Device, len(names))
	aud := s.Audit()
	for i, name := range names {
		d := &devs[i]
		d.sim, d.name, d.perf, d.memTotal, d.aud = s, name, perf, memBytes, aud
		if aud != nil {
			aud.RegisterDigest("gpusim", "gpusim."+name, d.digest)
		}
	}
	return devs
}

// digest hashes the device's memory-manager state: aggregate usage
// and the monotonic handle counter (no per-buffer walk needed — the
// counters pin every Malloc/Free that ever happened).
func (d *Device) digest(dig *audit.Digest) {
	dig.WriteString(d.name)
	dig.WriteInt(d.memTotal)
	dig.WriteInt(d.memUsed)
	dig.WriteUint(d.next)
	dig.WriteInt(int64(len(d.allocs)))
	dig.WriteInt(d.launched)
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// MemTotal returns the device memory capacity in bytes.
func (d *Device) MemTotal() int64 { return d.memTotal }

// MemUsed returns the currently allocated bytes.
func (d *Device) MemUsed() int64 {
	return d.memUsed
}

// KernelsLaunched returns how many kernels have run on the device.
func (d *Device) KernelsLaunched() int64 {
	return d.launched
}

// Malloc allocates size bytes of device memory (cudaMalloc).
func (d *Device) Malloc(size int64) (Ptr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpusim: Malloc size %d", size)
	}
	if d.memUsed+size > d.memTotal {
		return 0, fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, size, d.memTotal-d.memUsed)
	}
	d.next++
	p := Ptr(d.next)
	if d.allocs == nil {
		d.allocs = make(map[Ptr]*buffer)
	}
	d.allocs[p] = &buffer{data: make([]byte, size)}
	d.memUsed += size
	d.aud.Record(audit.KindAlloc, "gpusim", d.name, "malloc", size, int64(p))
	return p, nil
}

// Free releases a device allocation (cudaFree).
func (d *Device) Free(p Ptr) error {
	b, ok := d.allocs[p]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	d.memUsed -= int64(len(b.data))
	delete(d.allocs, p)
	d.aud.Record(audit.KindRelease, "gpusim", d.name, "free", int64(len(b.data)), int64(p))
	return nil
}

// CopyIn writes host data into device memory at p+offset. The caller
// is responsible for charging transfer time (the DAC layer charges
// the interconnect; a node-attached GPU would charge PCIe).
func (d *Device) CopyIn(p Ptr, offset int64, data []byte) error {
	b, ok := d.allocs[p]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(b.data)) {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadCopy, offset, offset+int64(len(data)), len(b.data))
	}
	copy(b.data[offset:], data)
	return nil
}

// CopyOut reads n bytes of device memory at p+offset.
func (d *Device) CopyOut(p Ptr, offset, n int64) ([]byte, error) {
	b, ok := d.allocs[p]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	if offset < 0 || n < 0 || offset+n > int64(len(b.data)) {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrBadCopy, offset, offset+n, len(b.data))
	}
	out := make([]byte, n)
	copy(out, b.data[offset:])
	return out, nil
}

// KernelCtx gives a running kernel access to device memory and its
// launch configuration.
type KernelCtx struct {
	dev   *Device
	Grid  [3]int
	Block [3]int
	Args  []any
}

// Bytes returns the backing slice of a device allocation for in-place
// kernel access. The kernel must not retain it past its return.
func (c *KernelCtx) Bytes(p Ptr) ([]byte, error) {
	b, ok := c.dev.allocs[p]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	return b.data, nil
}

// Threads returns the total thread count of the launch configuration.
func (c *KernelCtx) Threads() int {
	g := c.Grid[0] * max1(c.Grid[1]) * max1(c.Grid[2])
	b := c.Block[0] * max1(c.Block[1]) * max1(c.Block[2])
	return g * b
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Launch executes a registered kernel synchronously, charging
// roofline time on the simulation clock.
func (d *Device) Launch(name string, grid, block [3]int, args ...any) error {
	fn, ok := lookupKernel(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	ctx := &KernelCtx{dev: d, Grid: grid, Block: block, Args: args}
	cost, err := fn(ctx)
	if err != nil {
		return fmt.Errorf("gpusim: kernel %q: %w", name, err)
	}
	d.launched++
	d.sim.Sleep(d.execTime(cost))
	return nil
}

// execTime converts kernel work into time under the roofline model.
func (d *Device) execTime(c Cost) time.Duration {
	var compute, memory float64 // seconds
	if d.perf.GFLOPS > 0 {
		compute = c.FLOPs / (d.perf.GFLOPS * 1e9)
	}
	if d.perf.MemBandwidthBps > 0 {
		memory = c.BytesRW / d.perf.MemBandwidthBps
	}
	t := compute
	if memory > t {
		t = memory
	}
	return d.perf.KernelLaunch + time.Duration(t*float64(time.Second))
}
