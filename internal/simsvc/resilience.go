package simsvc

import (
	"context"
	"errors"
	"fmt"

	"kagura/internal/faultinject"
)

// ErrorCode is the machine-readable error taxonomy carried in the `code`
// field of every /v1 error response and the kagura_errors_total metric.
type ErrorCode string

// Error taxonomy. One code per failure class a client can react to
// differently.
const (
	// CodeInvalidSpec: the run spec failed validation (bad app, codec, …).
	CodeInvalidSpec ErrorCode = "invalid_spec"
	// CodeBadRequest: the HTTP request itself was malformed (bad JSON, …).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeQueueFull: the bounded job queue was at capacity.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeOverloaded: the load-shedding breaker rejected the submission.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeServiceClosed: the service is shut down.
	CodeServiceClosed ErrorCode = "service_closed"
	// CodeUnknownJob: no retained job has the requested ID.
	CodeUnknownJob ErrorCode = "unknown_job"
	// CodeTimeout: the job exceeded its execution timeout.
	CodeTimeout ErrorCode = "timeout"
	// CodeCanceled: the job was canceled.
	CodeCanceled ErrorCode = "canceled"
	// CodePanic: the compute panicked (recovered by the worker).
	CodePanic ErrorCode = "panic"
	// CodeFaultInjected: a chaos-plan fault surfaced as the job's error.
	CodeFaultInjected ErrorCode = "fault_injected"
	// CodeInternal: anything else.
	CodeInternal ErrorCode = "internal"
)

// errorCodes fixes the rendering order of kagura_errors_total{code} — the
// Prometheus exposition must be byte-stable, so the codes are enumerated
// here, never by ranging over a map.
var errorCodes = []ErrorCode{
	CodeBadRequest,
	CodeCanceled,
	CodeFaultInjected,
	CodeInternal,
	CodeInvalidSpec,
	CodeOverloaded,
	CodePanic,
	CodeQueueFull,
	CodeServiceClosed,
	CodeTimeout,
	CodeUnknownJob,
}

// Classify maps an error to its taxonomy code. Order matters: ErrOverloaded
// wraps ErrQueueFull, so the breaker is checked first.
func Classify(err error) ErrorCode {
	var pe *panicError
	var inj *faultinject.InjectedError
	var se *specError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrClosed):
		return CodeServiceClosed
	case errors.Is(err, ErrUnknownJob):
		return CodeUnknownJob
	case errors.As(err, &se):
		return CodeInvalidSpec
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.As(err, &pe):
		return CodePanic
	case errors.As(err, &inj):
		return CodeFaultInjected
	default:
		return CodeInternal
	}
}

// specError marks a spec-validation failure for Classify without altering the
// error's text or unwrap chain.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// badSpec books one validation failure and marks the error invalid_spec.
func (s *Service) badSpec(err error) error {
	s.noteError(CodeInvalidSpec)
	return &specError{err: err}
}

// panicError wraps a recovered compute panic. The job settles with it at
// once: a panic is a crash the worker survives, not a reason to run again.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("simsvc: job panicked: %v", e.val) }
