package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// requestIDKey is the context key under which the middleware stores the
// request id.
type requestIDKey struct{}

// reqSeq numbers requests within the process; combined with the process
// start time it yields ids that are unique across restarts without any
// randomness in the hot path.
var (
	reqSeq   atomic.Int64
	procSeed = func() string {
		return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
	}()
)

// newRequestID mints an id like "6f3a91c2-000042".
func newRequestID() string {
	return fmt.Sprintf("%s-%06d", procSeed, reqSeq.Add(1))
}

// RequestID returns the id the AccessLog middleware assigned to this
// request's context, or "" outside an instrumented handler.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the response status and byte count.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming
// (pprof's trace endpoint flushes).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog wraps a handler so every request gets a request id (stored
// in the context, echoed as the X-Request-Id response header) and, when
// logger is non-nil, one Info record on completion carrying method,
// path, status, bytes, duration_ms, request_id and remote.
func AccessLog(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if logger == nil {
			return
		}
		if sw.status == 0 {
			// Handler wrote nothing (e.g. a dropped canceled request);
			// net/http will send 200 with an empty body.
			sw.status = http.StatusOK
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(time.Since(start).Microseconds())/1000),
			slog.String("request_id", id),
			slog.String("remote", r.RemoteAddr))
	})
}

// OpenLogWriter resolves an access-log destination flag: "stdout",
// "stderr", "off"/"" (nil writer, request ids only), or a file path
// opened for append.
func OpenLogWriter(dest string) (io.Writer, error) {
	switch dest {
	case "stdout":
		return os.Stdout, nil
	case "stderr":
		return os.Stderr, nil
	case "off", "":
		return nil, nil
	}
	return os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
