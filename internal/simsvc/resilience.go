package simsvc

import (
	"context"
	"errors"

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

// Error is a service error that carries its taxonomy code: the submission
// sentinels, spec-validation failures and recovered compute panics. Its text
// and unwrap chain are those of Err.
type Error struct {
	Code ErrorCode
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Classify maps an error to its taxonomy code: the code of the outermost
// *Error in its chain (ErrOverloaded wraps ErrQueueFull, so the breaker's
// code wins), else the context, fault-injection or catch-all code.
func Classify(err error) ErrorCode {
	var se *Error
	var inj *faultinject.InjectedError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.As(err, &inj):
		return CodeFaultInjected
	default:
		return CodeInternal
	}
}

// badSpec books one validation failure and marks the error invalid_spec.
func (s *Service) badSpec(err error) error {
	s.noteError(CodeInvalidSpec)
	return &Error{Code: CodeInvalidSpec, Err: err}
}
