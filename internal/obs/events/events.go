// Package events is the structured event log: one JSON object per line,
// one line per lifecycle transition (barrier cut/complete, restore,
// rescale, worker connect/disconnect). The log is greppable
// with standard tools (`grep checkpoint.complete events.jsonl | jq ...`)
// and cheap enough to leave on in production — nothing is buffered beyond
// the single line being built, and a nil *Log swallows every Emit, so
// call sites never branch on whether logging is enabled.
package events

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Field is one key/value pair on an event.
type Field struct {
	Key   string
	Value any
}

// F is shorthand for constructing a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Log writes JSON-lines events to an io.Writer. Safe for concurrent use;
// each event is one Write call, so lines from concurrent emitters never
// interleave on ordinary files. The zero value and the nil pointer both
// discard events.
type Log struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	now    func() time.Time
}

// New returns a Log writing to w.
func New(w io.Writer) *Log {
	return &Log{w: w, now: time.Now}
}

// Open appends to the file at path, creating it if needed. Append mode
// means kill-and-resume runs accumulate one continuous trace.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := New(f)
	l.closer = f
	return l, nil
}

// Emit writes one event line: {"ts":"...","event":"...",fields...}.
// Fields are rendered in argument order. Values may be strings, bools,
// integers, floats, or anything else (rendered with %v as a JSON string).
// A nil receiver or a Log without a writer discards the event.
func (l *Log) Emit(event string, fields ...Field) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return
	}
	var b strings.Builder
	b.WriteString(`{"ts":`)
	b.WriteString(strconv.Quote(l.now().UTC().Format(time.RFC3339Nano)))
	b.WriteString(`,"event":`)
	b.WriteString(strconv.Quote(event))
	for _, f := range fields {
		b.WriteByte(',')
		b.WriteString(strconv.Quote(f.Key))
		b.WriteByte(':')
		writeValue(&b, f.Value)
	}
	b.WriteString("}\n")
	_, _ = io.WriteString(l.w, b.String())
}

// writeValue renders a field value as JSON.
func writeValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		b.WriteString(strconv.Quote(x))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case int:
		b.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case time.Duration:
		b.WriteString(strconv.Quote(x.String()))
	default:
		b.WriteString(strconv.Quote(fmt.Sprintf("%v", x)))
	}
}

// Close closes the underlying file if the Log owns one (Open). Safe on a
// nil receiver.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = nil
	if l.closer != nil {
		c := l.closer
		l.closer = nil
		return c.Close()
	}
	return nil
}
