package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
)

// logLevels are the -log-level spellings every command accepts.
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
}

// NewLogger builds the structured logger of a command from its
// -log-level (debug, info, warn, error) and -log-format (text, json)
// flag values, writing to w — conventionally stderr, keeping stdout for
// results. text is slog's key=value handler, json its one-object-per-line
// handler. Invalid values return an error listing the accepted spellings.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, ok := logLevels[strings.ToLower(level)]
	if !ok {
		return nil, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// discardLogger drops every record: no level reaches its threshold.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard,
	&slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// OrDiscard returns lg, or a logger that drops every record when lg is
// nil. APIs whose nil logger means "log nothing" resolve it once at
// their entry point, since a nil *slog.Logger panics when called.
func OrDiscard(lg *slog.Logger) *slog.Logger {
	if lg == nil {
		return discardLogger
	}
	return lg
}
