// Package atomicmix is the rrlint fixture for the atomicmix check:
// calls to the function-style sync/atomic API (findings, whatever the
// operand), a suppressed call, and the typed atomics, whose methods
// are clean.
package atomicmix

import "sync/atomic"

type Counter struct {
	hits  uint64
	flag  int32
	safe  atomic.Uint64
	ptr   atomic.Pointer[Counter]
	plain uint64
}

// inc bumps a plain field through the function-style API: the field
// stays a uint64 that nothing stops a later c.hits++ from racing on.
func (c *Counter) inc() {
	atomic.AddUint64(&c.hits, 1) // want: function-style call
}

// read is the other half of the mix; the check reports the atomic
// side, so this plain read needs no finding of its own.
func (c *Counter) read() uint64 {
	return c.hits
}

// swap and cas cover the other function families.
func (c *Counter) swap() bool {
	atomic.StoreInt32(&c.flag, 1)                    // want: function-style call
	return atomic.CompareAndSwapInt32(&c.flag, 1, 0) // want: function-style call
}

// legacy is acknowledged with a suppression at the call.
func (c *Counter) legacy() uint64 {
	return atomic.LoadUint64(&c.hits) //rrlint:allow atomicmix -- fixture: acknowledged legacy call
}

// ok uses the typed atomics (mix-proof by construction) and a field
// that is only ever plain: no findings.
func (c *Counter) ok() uint64 {
	c.safe.Add(1)
	c.safe.CompareAndSwap(1, 2)
	c.ptr.Store(c)
	c.plain++
	return c.safe.Load() + c.plain
}
