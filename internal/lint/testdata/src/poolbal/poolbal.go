// Package poolbal exercises the poolbalance analyzer. Conn.Recv and
// Acquire are configured as pool sources in the test; (*sync.Pool).Get
// is always a source.
package poolbal

import (
	"errors"
	"sync"
)

type Msg struct {
	Payload any
	next    *Msg
}

func (m *Msg) Release() {}

type Conn struct{}

func (c *Conn) Recv() (*Msg, error)    { return &Msg{}, nil }
func (c *Conn) TryRecv() (*Msg, error) { return nil, errors.New("empty") }

type Res struct{ n int }

func (r *Res) Release() {}

func Acquire() *Res { return &Res{} }

var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// --- clean shapes ---

func balanced(c *Conn) (any, error) {
	m, err := c.Recv()
	if err != nil {
		return nil, err
	}
	p := m.Payload
	m.Release()
	return p, nil
}

func balancedDefer(c *Conn) error {
	m, err := c.Recv()
	if err != nil {
		return err
	}
	defer m.Release()
	return nil
}

func nilGuard(c *Conn) {
	m, _ := c.Recv()
	if m == nil {
		return
	}
	m.Release()
}

func nilGuardInverted(c *Conn) {
	m, _ := c.Recv()
	if m != nil {
		m.Release()
	}
}

func handOffArg(c *Conn, sink func(*Msg)) {
	m, err := c.Recv()
	if err != nil {
		return
	}
	sink(m) // ownership transferred: no release required here
}

func handOffReturn(c *Conn) (*Msg, error) {
	m, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return m, nil
}

func handOffStore(c *Conn, out []*Msg) {
	m, _ := c.Recv()
	out[0] = m
}

func handOffClosure(c *Conn) func() {
	m, _ := c.Recv()
	return func() { m.Release() }
}

func poolRoundTrip() {
	m := msgPool.Get().(*Msg)
	m.Payload = nil
	msgPool.Put(m)
}

func loopBalanced(c *Conn) {
	for i := 0; i < 4; i++ {
		m, err := c.Recv()
		if err != nil {
			return
		}
		m.Release()
	}
}

// --- failure shapes ---

func leaksOnEarlyReturn(c *Conn) (any, error) {
	m, err := c.Recv() // want `m obtained from Recv is not released on the path reaching the return at line \d+`
	if err != nil {
		return nil, err
	}
	if m.Payload == nil {
		return nil, errors.New("empty") // the leaking path
	}
	p := m.Payload
	m.Release()
	return p, nil
}

func leaksEntirely(c *Conn) any {
	m, _ := c.Recv() // want `m obtained from Recv is not released`
	return m.Payload
}

func leaksFromPool() any {
	m := msgPool.Get().(*Msg) // want `m obtained from Get is not released`
	return m.Payload
}

func leaksAcquire() int {
	r := Acquire() // want `r obtained from Acquire is not released`
	return r.n
}

func doubleRelease(c *Conn) {
	m, _ := c.Recv()
	m.Release()
	m.Release() // want `m may already be released when this release runs`
}

func doubleReleaseBranch(c *Conn, flaky bool) {
	m, _ := c.Recv()
	if flaky {
		m.Release()
	}
	m.Release() // want `m may already be released when this release runs`
}

func loopCarriedLeak(c *Conn, stop func() bool) {
	var m *Msg
	for {
		var err error
		m, err = c.Recv() // want `m is reacquired from Recv while a previous acquisition is still unreleased`
		if err != nil {
			return
		}
		if stop() {
			m.Release()
			return
		}
		// back around without releasing
	}
}

func overwriteWhileLive(c *Conn) {
	m, _ := c.Recv()
	m = nil // want `m is overwritten while still holding an unreleased value from Recv`
	_ = m
}
