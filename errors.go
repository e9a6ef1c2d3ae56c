package mxq

import (
	"errors"

	"mxq/internal/xqerr"
)

// QueryError is the typed XQuery error every engine layer mints: a W3C
// error code (XPST0008, XPDY0002, FODC0002, …) plus a message. Its
// Error() text is exactly "xquery error CODE: message", so existing
// string-based handling keeps working; new callers classify errors with
// errors.As:
//
//	if qe := mxq.AsQueryError(err); qe != nil && qe.Static() { ... }
//
// Static() reports whether the code is a static (compile-time) class
// (XPST/XQST) — the query can never run — as opposed to a dynamic error
// of one execution. Errors without a code (I/O failures, internal
// errors recovered from a bad plan) are not QueryErrors.
type QueryError = xqerr.Error

// AsQueryError unwraps err to its QueryError, or nil when err carries
// no W3C error code.
func AsQueryError(err error) *QueryError {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe
	}
	return nil
}

// IsResourceLimit reports whether err is the typed resource-exhausted
// error (code XPDY0130) a query raises when it exceeds its memory
// budget (its scheduler grant's, SchedulerConfig.MemPerQuery) or an intermediate
// result row limit. It is a dynamic error — the same query may succeed
// under a larger budget — so servers map it to 503, not 400.
func IsResourceLimit(err error) bool { return xqerr.IsResourceLimit(err) }
