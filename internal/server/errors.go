package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fastsched/internal/batch"
)

// Error codes. Every non-2xx response carries exactly one of these in
// its JSON body, so clients can branch on a stable string instead of
// parsing messages.
const (
	CodeInvalidRequest   = "invalid_request"   // malformed JSON, bad field values
	CodeInvalidGraph     = "invalid_graph"     // graph fails structural validation
	CodeInvalidAlgorithm = "invalid_algorithm" // unknown scheduler name
	CodeBodyTooLarge     = "body_too_large"    // request body over the limit
	CodeQuotaExhausted   = "quota_exhausted"   // tenant token bucket empty
	CodeQueueFull        = "queue_full"        // engine load-shedding
	CodeDraining         = "draining"          // server is shutting down
	CodeNotFound         = "not_found"         // unknown job or route
	CodeMethodNotAllowed = "method_not_allowed"
	CodeDeadlineExceeded = "deadline_exceeded" // per-request scheduling deadline expired
	CodeCanceled         = "canceled"          // client went away mid-request
	CodeJobTableFull     = "job_table_full"    // too many unfinished async jobs
	CodeInternal         = "internal"
)

// Backoff is the retry guidance attached to retryable errors:
// exponential backoff from InitialMS capped at MaxMS, on top of any
// explicit retry_after_ms floor.
type Backoff struct {
	InitialMS  int64   `json:"initial_ms"`
	Multiplier float64 `json:"multiplier"`
	MaxMS      int64   `json:"max_ms"`
}

// defaultBackoff is the hint attached to every retryable rejection.
var defaultBackoff = &Backoff{InitialMS: 100, Multiplier: 2, MaxMS: 5000}

// ErrorBody is the JSON error payload, wrapped as {"error": {...}}.
type ErrorBody struct {
	Code         string   `json:"code"`
	Message      string   `json:"message"`
	Retryable    bool     `json:"retryable"`
	RetryAfterMS int64    `json:"retry_after_ms,omitempty"`
	Backoff      *Backoff `json:"backoff,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError emits one typed JSON error. Retryable errors with a
// retry-after hint also carry the standard Retry-After header (whole
// seconds, rounded up, minimum 1) so plain HTTP clients get the same
// guidance without parsing the body.
func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	if body.Retryable && body.Backoff == nil {
		body.Backoff = defaultBackoff
	}
	w.Header().Set("Content-Type", "application/json")
	if body.RetryAfterMS > 0 {
		secs := (body.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: body})
}

// engineErrorBody maps a batch-engine error onto an HTTP status and a
// typed error body. Validation failures are the client's fault (4xx,
// not retryable); load-shedding and shutdown are the server's state
// (503, retryable with guidance); context errors reflect the request's
// own lifetime.
func engineErrorBody(err error, retryAfter time.Duration) (int, ErrorBody) {
	msg := err.Error()
	switch {
	case errors.Is(err, batch.ErrNilGraph), errors.Is(err, batch.ErrEmptyGraph),
		errors.Is(err, batch.ErrBadGraph):
		return http.StatusBadRequest, ErrorBody{Code: CodeInvalidGraph, Message: msg}
	case errors.Is(err, batch.ErrBadAlgorithm):
		return http.StatusBadRequest, ErrorBody{Code: CodeInvalidAlgorithm, Message: msg}
	case errors.Is(err, batch.ErrBadDeadline), errors.Is(err, batch.ErrBadBudget), errors.Is(err, batch.ErrBadProcs):
		return http.StatusBadRequest, ErrorBody{Code: CodeInvalidRequest, Message: msg}
	case errors.Is(err, batch.ErrQueueFull):
		return http.StatusServiceUnavailable, ErrorBody{
			Code: CodeQueueFull, Message: "scheduling queue at capacity; back off and retry",
			Retryable: true, RetryAfterMS: retryAfter.Milliseconds(),
		}
	case errors.Is(err, batch.ErrClosed):
		return http.StatusServiceUnavailable, ErrorBody{
			Code: CodeDraining, Message: "server is draining; retry against a healthy instance",
			Retryable: true, RetryAfterMS: retryAfter.Milliseconds(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorBody{
			Code: CodeDeadlineExceeded, Message: "scheduling deadline expired", Retryable: true,
		}
	case errors.Is(err, context.Canceled):
		// 499 is the de-facto "client closed request" status; the client
		// is usually gone, but the code keeps logs and tests honest.
		return 499, ErrorBody{Code: CodeCanceled, Message: "request canceled"}
	default:
		return http.StatusInternalServerError, ErrorBody{
			Code: CodeInternal, Message: fmt.Sprintf("internal error: %v", err), Retryable: true,
		}
	}
}
