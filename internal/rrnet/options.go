package rrnet

import (
	"errors"
	"fmt"
	"time"
)

// ClientOptions configures a Client (the rrd side).
type ClientOptions struct {
	// Addr is the rrproc address (host:port).
	Addr string
	// Tenant identifies the recording fleet member (free-form label).
	Tenant string

	// ChunkSize is the target bytes per wire chunk.
	ChunkSize int
	// Window bounds the in-flight ring: chunks buffered but not yet
	// durably acked. When it is full, Write waits for the window to
	// drain; nothing is ever shed.
	Window int

	// MaxRetries caps reconnect attempts per failure burst (attempts
	// reset after any successful ack progress). 0 means DefaultMaxRetries.
	MaxRetries int
	// BackoffBase and BackoffCap bound the exponential reconnect
	// backoff (base*2^attempt, capped, plus deterministic jitter).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// DialTimeout bounds one connection attempt; FrameTimeout bounds
	// one frame write/read on an established connection.
	DialTimeout  time.Duration
	FrameTimeout time.Duration
	// HeartbeatEvery is the idle-connection heartbeat interval.
	HeartbeatEvery time.Duration
	// AckStall forces a reconnect when no ack progress happens for
	// this long while chunks are in flight — the recovery path for
	// frames silently lost in transit.
	AckStall time.Duration

	// Seed drives the deterministic jitter PRNG. Zero seeds from the
	// session ID so tests replay byte-identically.
	Seed uint64
}

// Defaults for zero-valued ClientOptions fields.
const (
	DefaultChunkSize      = 64 << 10
	DefaultWindow         = 32
	DefaultMaxRetries     = 8
	DefaultBackoffBase    = 50 * time.Millisecond
	DefaultBackoffCap     = 5 * time.Second
	DefaultDialTimeout    = 5 * time.Second
	DefaultFrameTimeout   = 10 * time.Second
	DefaultHeartbeatEvery = 2 * time.Second
	DefaultAckStall       = 3 * time.Second
)

// ErrBadOptions tags every options-validation failure.
var ErrBadOptions = errors.New("rrnet: invalid options")

// withDefaults fills zero fields; Validate rejects what defaults
// cannot repair.
func (o ClientOptions) withDefaults() ClientOptions {
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = DefaultBackoffCap
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = DefaultFrameTimeout
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if o.AckStall == 0 {
		o.AckStall = DefaultAckStall
	}
	return o
}

// Validate rejects unusable options. Negative values are never
// "disabled" — they are config typos (the NMICap lesson: a zero or
// negative bound that silently disables a limit becomes a divide-by-
// zero or an unbounded queue three layers down).
func (o ClientOptions) Validate() error {
	o = o.withDefaults()
	if o.Addr == "" {
		return fmt.Errorf("%w: Addr is empty", ErrBadOptions)
	}
	if o.ChunkSize < 0 || o.ChunkSize > MaxWirePayload-16 {
		return fmt.Errorf("%w: ChunkSize %d (want 1..%d)", ErrBadOptions, o.ChunkSize, MaxWirePayload-16)
	}
	if o.Window < 0 {
		return fmt.Errorf("%w: Window %d is negative", ErrBadOptions, o.Window)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("%w: MaxRetries %d is negative", ErrBadOptions, o.MaxRetries)
	}
	if o.BackoffBase < 0 || o.BackoffCap < 0 {
		return fmt.Errorf("%w: negative backoff (base %v, cap %v)", ErrBadOptions, o.BackoffBase, o.BackoffCap)
	}
	if o.BackoffCap < o.BackoffBase {
		return fmt.Errorf("%w: BackoffCap %v below BackoffBase %v", ErrBadOptions, o.BackoffCap, o.BackoffBase)
	}
	if o.DialTimeout < 0 || o.FrameTimeout < 0 || o.HeartbeatEvery < 0 || o.AckStall < 0 {
		return fmt.Errorf("%w: negative timeout", ErrBadOptions)
	}
	return nil
}

// ServerOptions configures a Server (the rrproc side).
type ServerOptions struct {
	// Addr is the listen address (host:port or :port).
	Addr string
	// JournalPath is the append-only journal file.
	JournalPath string

	// MaxSessions bounds concurrently open sessions; further hellos
	// are rejected (the client reports StatusReject cleanly).
	MaxSessions int
	// ReorderWindow bounds the out-of-order chunk buffer per session:
	// chunks at most this far ahead of contig are held, further ones
	// dropped (the client's ack-stall reconnect re-delivers them).
	ReorderWindow int
	// FrameTimeout bounds one frame read on an established connection;
	// an idle connection past it (no heartbeat) is closed.
	FrameTimeout time.Duration
	// DrainTimeout bounds the graceful SIGTERM drain.
	DrainTimeout time.Duration

	// FsyncEveryBytes inserts a journal segment boundary (segment
	// record + fsync) after at least this many bytes.
	FsyncEveryBytes int

	// SlowConsumer, when >0, sleeps this long per chunk before acking —
	// a chaos-testing knob that provokes client backpressure.
	SlowConsumer time.Duration
}

// Defaults for zero-valued ServerOptions fields.
const (
	DefaultMaxSessions     = 64
	DefaultReorderWindow   = 64
	DefaultDrainTimeout    = 10 * time.Second
	DefaultFsyncEveryBytes = 1 << 20
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.ReorderWindow == 0 {
		o.ReorderWindow = DefaultReorderWindow
	}
	if o.FrameTimeout == 0 {
		o.FrameTimeout = DefaultFrameTimeout
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.FsyncEveryBytes == 0 {
		o.FsyncEveryBytes = DefaultFsyncEveryBytes
	}
	return o
}

// Validate rejects unusable server options.
func (o ServerOptions) Validate() error {
	o = o.withDefaults()
	if o.Addr == "" {
		return fmt.Errorf("%w: Addr is empty", ErrBadOptions)
	}
	if o.JournalPath == "" {
		return fmt.Errorf("%w: JournalPath is empty", ErrBadOptions)
	}
	if o.MaxSessions < 0 {
		return fmt.Errorf("%w: MaxSessions %d is negative", ErrBadOptions, o.MaxSessions)
	}
	if o.ReorderWindow < 0 {
		return fmt.Errorf("%w: ReorderWindow %d is negative", ErrBadOptions, o.ReorderWindow)
	}
	if o.FrameTimeout < 0 || o.DrainTimeout < 0 || o.SlowConsumer < 0 {
		return fmt.Errorf("%w: negative timeout", ErrBadOptions)
	}
	if o.FsyncEveryBytes < 0 {
		return fmt.Errorf("%w: FsyncEveryBytes %d is negative", ErrBadOptions, o.FsyncEveryBytes)
	}
	return nil
}
