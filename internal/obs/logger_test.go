package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// A logger built from valid flags honours its level; an unknown level or
// format is an error.
func TestNewLoggerFlags(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("lines = %d, want 1", n)
	}
	if _, err := NewLogger(&buf, "bogus", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "bogus"); err == nil {
		t.Error("bad format accepted")
	}
}

// The flag spellings map onto slog levels and handlers, case-insensitively;
// anything else is an error that names the accepted spellings.
func TestNewLoggerSpellings(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error", "ERROR"} {
		for _, format := range []string{"text", "json", "JSON"} {
			if _, err := NewLogger(&bytes.Buffer{}, level, format); err != nil {
				t.Errorf("NewLogger(%q, %q): %v", level, format, err)
			}
		}
	}
	for _, bad := range [][2]string{{"warning", "text"}, {"loud", "text"}, {"", "text"}, {"info", "xml"}} {
		_, err := NewLogger(&bytes.Buffer{}, bad[0], bad[1])
		if err == nil {
			t.Errorf("NewLogger(%q, %q) accepted", bad[0], bad[1])
			continue
		}
		if !strings.Contains(err.Error(), "debug, info, warn, or error") && !strings.Contains(err.Error(), "text or json") {
			t.Errorf("NewLogger(%q, %q) error lists no spellings: %v", bad[0], bad[1], err)
		}
	}
}

// Records below the flag's level are dropped; those at or above it kept.
func TestNewLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("dropped")
	lg.Info("dropped")
	lg.Warn("kept")
	lg.Error("kept")
	if got := buf.String(); strings.Count(got, "\n") != 2 || strings.Contains(got, "dropped") {
		t.Fatalf("warn logger emitted:\n%s", got)
	}
}

// The text format carries the level, message and the field keys the
// commands use as key=value pairs.
func TestNewLoggerTextFormat(t *testing.T) {
	var text bytes.Buffer
	lg, err := NewLogger(&text, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("shard done", "shard", 3, "wall", 1500*time.Millisecond, "phase", "stmts")
	if got := text.String(); !strings.HasPrefix(got, "time=") ||
		!strings.HasSuffix(got, ` level=INFO msg="shard done" shard=3 wall=1.5s phase=stmts`+"\n") {
		t.Fatalf("text line = %q", got)
	}
}

// Each json record parses as one object carrying the level, message,
// With fields and integers unquoted.
func TestNewLoggerJSONFormat(t *testing.T) {
	var js bytes.Buffer
	lg, err := NewLogger(&js, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.With("component", "driver").Error(`bad "path"`, "shard", 7, "err", errors.New("boom\nline2"))
	var m map[string]any
	if err := json.Unmarshal(js.Bytes(), &m); err != nil {
		t.Fatalf("line does not parse as JSON: %v\n%s", err, js.String())
	}
	if m["level"] != "ERROR" || m["msg"] != `bad "path"` || m["component"] != "driver" ||
		m["shard"] != float64(7) || m["err"] != "boom\nline2" {
		t.Fatalf("fields wrong: %v", m)
	}
	if _, err := time.Parse(time.RFC3339Nano, m["time"].(string)); err != nil {
		t.Fatalf("time = %v: %v", m["time"], err)
	}
}
