// Package fault is the fault-tolerance layer of the distributed verifier:
// typed RPC errors that distinguish transient infrastructure failures from
// fatal application errors, a retrying/timing-out call wrapper (Caller), a
// heartbeat-based failure detector (Detector), and a deterministic
// fault-injection harness (Injector) so recovery paths are testable
// in-process without real crashes.
//
// The paper's deployment (§5) runs workers on separate servers; a hung or
// crashed worker must not wedge the controller. Every controller→worker and
// worker→worker RPC is bounded by a deadline, idempotent calls are retried
// with exponential backoff + jitter, and errors that indicate the remote
// side is unreachable are marked transient so the controller can re-partition
// the dead worker's segment onto survivors and re-execute the phase.
package fault

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"syscall"
)

// Marker is embedded in the message of every transient fault error. net/rpc
// flattens server-side errors to strings (rpc.ServerError), so transience
// must survive as text: a worker's "peer unreachable" error still classifies
// as transient after crossing a second RPC hop.
const Marker = "[s2:transient]"

// ErrTimeout reports that an RPC exceeded its per-attempt deadline.
var ErrTimeout = errors.New("fault: rpc deadline exceeded")

// ErrWorkerDown reports that a worker was declared dead (by the failure
// detector or a crash injection).
var ErrWorkerDown = errors.New("fault: worker down")

// ErrInjected is the cause recorded by Injector-produced failures.
var ErrInjected = errors.New("fault: injected failure")

// Kind classifies a fault error.
type Kind int

const (
	// Transient failures are infrastructure-level: the remote side may be
	// slow, unreachable, or dead. The call may not have executed. Recovery
	// (retry, or re-execution on surviving workers) is appropriate.
	Transient Kind = iota
	// Fatal failures are application-level: the remote side executed the
	// call and returned an error (bad config, budget exceeded). Retrying
	// cannot help.
	Fatal
)

// Error is a typed RPC failure.
type Error struct {
	Method   string // RPC method (or phase) that failed
	Attempts int    // attempts made (0 means "not retried")
	Kind     Kind
	Err      error // underlying cause
}

// Error implements error; transient errors carry the Marker so the
// classification survives net/rpc string flattening.
func (e *Error) Error() string {
	mark := ""
	if e.Kind == Transient {
		mark = " " + Marker
	}
	if e.Attempts > 1 {
		return fmt.Sprintf("fault: %s failed after %d attempts%s: %v", e.Method, e.Attempts, mark, e.Err)
	}
	return fmt.Sprintf("fault: %s failed%s: %v", e.Method, mark, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// TransientErr wraps err as a transient fault of the given method.
func TransientErr(method string, err error) *Error {
	return &Error{Method: method, Kind: Transient, Err: err}
}

// FatalErr wraps err as a fatal fault of the given method: the remote side
// refused the call for a reason no retry can change.
func FatalErr(method string, err error) *Error {
	return &Error{Method: method, Kind: Fatal, Err: err}
}

// transientStrings are substrings of stdlib error texts that indicate the
// transport (not the application) failed. String matching is the pragmatic
// fallback for errors that crossed an RPC boundary or were wrapped without
// %w.
var transientStrings = []string{
	Marker,
	"connection refused",
	"connection reset",
	"broken pipe",
	"use of closed network connection",
	"connection is shut down", // rpc.ErrShutdown
	"server draining",         // sidecar.ErrDraining, possibly via rpc.ServerError
	"unexpected EOF",
	"i/o timeout",
}

// IsTransient reports whether err indicates a transient infrastructure
// failure (timeout, dead peer, broken connection) rather than an
// application error. It understands typed *Error values, stdlib net/rpc and
// syscall errors, and the Marker convention for errors flattened to strings
// by net/rpc.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Kind == Transient
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrWorkerDown) ||
		errors.Is(err, rpc.ErrShutdown) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	msg := err.Error()
	for _, s := range transientStrings {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}
