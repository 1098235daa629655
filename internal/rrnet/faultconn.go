package rrnet

import (
	"errors"
	"fmt"
	"net"
	"time"

	"relaxreplay/internal/faultinject"
)

// FaultConn is the chaos transport: a net.Conn wrapper that consults
// the injector's net.* points once per Write. Both the client and the
// server write exactly one wire frame per Write call (writeFrame
// builds the whole frame into one buffer), so each consultation
// decides the fate of one frame:
//
//   - net.delay:        the frame is delivered late (1–20 ms sleep)
//   - net.drop:         the frame silently vanishes (Write reports success)
//   - net.reset:        the connection is closed; Write errors
//   - net.partial:      a prefix of the frame is delivered, then the
//     connection dies — the receiver sees a torn frame
//   - net.reorder-conn: the frame is held back and delivered after the
//     next one (an adjacent swap)
//
// Faults that fake success (drop) are the nasty ones: no error
// surfaces anywhere, and only the ack-stall reconnect machinery can
// recover the lost frame. That is precisely what the chaos grid needs
// to prove.
type FaultConn struct {
	net.Conn
	inj  *faultinject.Injector
	held []byte // frame held by net.reorder-conn, delivered after the next
}

// ErrInjectedReset is the error surfaced by net.reset / net.partial.
var ErrInjectedReset = errors.New("rrnet: injected connection reset")

// WrapFaultConn wraps nc so the injector's net.* points attack its
// write path. A nil injector returns nc unchanged.
func WrapFaultConn(nc net.Conn, inj *faultinject.Injector) net.Conn {
	if inj == nil {
		return nc
	}
	return &FaultConn{Conn: nc, inj: inj}
}

// Write decides one frame's fate. Not safe for concurrent Writes
// (neither endpoint issues them).
func (f *FaultConn) Write(b []byte) (int, error) {
	if f.inj.Fire(faultinject.NetDelay) {
		time.Sleep(time.Duration(1+f.inj.Rand(faultinject.NetDelay, 20)) * time.Millisecond)
	}
	if f.inj.Fire(faultinject.NetDrop) {
		return len(b), nil // vanished in transit; the sender cannot tell
	}
	if f.inj.Fire(faultinject.NetReset) {
		closeConn(f.Conn)
		return 0, ErrInjectedReset
	}
	if f.inj.Fire(faultinject.NetPartial) {
		cut := 1 + int(f.inj.Rand(faultinject.NetPartial, uint64(max(len(b)-1, 1))))
		if cut > len(b) {
			cut = len(b)
		}
		n, _ := f.Conn.Write(b[:cut])
		closeConn(f.Conn)
		return n, fmt.Errorf("%w: died after %d of %d bytes", ErrInjectedReset, cut, len(b))
	}
	if f.held == nil && f.inj.Fire(faultinject.NetReorder) {
		f.held = append([]byte(nil), b...)
		return len(b), nil // delivered out of order, after the next frame
	}
	if f.held != nil {
		held := f.held
		f.held = nil
		if n, err := f.Conn.Write(b); err != nil {
			return n, err
		}
		if _, err := f.Conn.Write(held); err != nil {
			return len(b), err
		}
		return len(b), nil
	}
	return f.Conn.Write(b)
}
