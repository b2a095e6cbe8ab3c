package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// LevelOff sits above every level a record is logged at, so a handler
// gated there drops everything. ParseLogLevel maps "off" to it.
const LevelOff = slog.LevelError + 4

// ParseLogLevel parses the -log-level flag vocabulary: debug, info, warn,
// error, off.
func ParseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		return LevelOff, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error|off)", s)
}

// NewLogger returns a logger writing records at min and above to w, one
// per line: slog's JSON handler when jsonOut, its text handler otherwise
// (the binaries' -log-level and -log-json flags).
func NewLogger(w io.Writer, min slog.Level, jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: min}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// LogFlags defines -log-level (defaulting to level) and -log-json on the
// command line. The returned function, called after flag.Parse, builds
// the stderr logger they select.
func LogFlags(level string) func() (*slog.Logger, error) {
	name := flag.String("log-level", level, "structured log level on stderr: debug|info|warn|error|off")
	jsonOut := flag.Bool("log-json", false, "emit structured logs as JSON lines (default: logfmt-style text)")
	return func() (*slog.Logger, error) {
		lvl, err := ParseLogLevel(*name)
		if err != nil {
			return nil, err
		}
		return NewLogger(os.Stderr, lvl, *jsonOut), nil
	}
}

// discard drops every record after one level comparison: a text handler
// over io.Discard gated at LevelOff (slog.DiscardHandler needs Go 1.24).
var discard slog.Handler = slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: LevelOff})
