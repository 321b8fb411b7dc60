package obs

import (
	"io"
	"log/slog"
	"strings"
)

// Logger is the repo's structured-logging surface: a thin nil-safe wrapper
// over log/slog. Components hold a *Logger the way they hold metric
// pointers — a nil logger means logging was never configured and every call
// is a predictable branch, so optional logging needs no conditionals at the
// call site.
//
// Logging is construction/recovery/lifecycle-time only: the commit hot path
// must never log (a slog call formats and allocates). The obsdirect
// analyzer rejects any log/slog call reachable from safeCommit/check, the
// same way it rejects registry lookups there.
type Logger struct{ s *slog.Logger }

// NewLogger wraps an slog handler. A nil handler yields a nil (disabled)
// logger.
func NewLogger(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	return &Logger{s: slog.New(h)}
}

// TextLogger builds a logger emitting slog's text format at the given
// level to w — the CLI's -log backend.
func TextLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLogLevel maps the CLI spelling of a level ("debug", "info", "warn",
// "error", or "off", any case) to a logger builder input; ok is false for
// unknown spellings. "off" returns enabled=false: the caller keeps a nil
// Logger.
func ParseLogLevel(s string) (level slog.Level, enabled, ok bool) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, true, true
	case "", "info":
		return slog.LevelInfo, true, true
	case "warn", "warning":
		return slog.LevelWarn, true, true
	case "error":
		return slog.LevelError, true, true
	case "off", "none":
		return 0, false, true
	}
	return 0, false, false
}

// With returns a logger carrying extra key-value context (nil in, nil out).
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, args ...any) {
	if l != nil {
		l.s.Debug(msg, args...)
	}
}

// Info logs at info level.
func (l *Logger) Info(msg string, args ...any) {
	if l != nil {
		l.s.Info(msg, args...)
	}
}

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) {
	if l != nil {
		l.s.Warn(msg, args...)
	}
}

// Error logs at error level.
func (l *Logger) Error(msg string, args ...any) {
	if l != nil {
		l.s.Error(msg, args...)
	}
}
