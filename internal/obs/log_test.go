package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

var bg = context.Background()

func TestLoggerJSONRecords(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelDebug, true)
	l.LogAttrs(bg, slog.LevelInfo, "hello \"world\"\n",
		slog.String("device", "edge-0-0"),
		slog.Int("shard", 3),
		slog.Int64("bytes", -7),
		slog.Uint64("epoch", 12),
		slog.Bool("ok", true),
		slog.String("path", "/debug/traces/\xff"),
		slog.Any("error", errors.New("boom")))

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", line)
	}
	if !utf8.ValidString(line) {
		t.Fatalf("record is not valid UTF-8: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	if rec["level"] != "INFO" || rec["msg"] != "hello \"world\"\n" {
		t.Fatalf("level/msg: %v", rec)
	}
	if rec["device"] != "edge-0-0" || rec["shard"].(float64) != 3 ||
		rec["bytes"].(float64) != -7 || rec["epoch"].(float64) != 12 {
		t.Fatalf("attrs: %v", rec)
	}
	if rec["ok"] != true || rec["error"] != "boom" || rec["path"] != "/debug/traces/�" {
		t.Fatalf("bool/error/path attrs: %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
		t.Fatalf("time: %v", err)
	}
}

func TestLoggerTextRecords(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelDebug, false)
	l.LogAttrs(bg, slog.LevelWarn, "watch out",
		slog.String("plain", "abc"), slog.String("quoted", "a b"), slog.Int("n", 5),
		slog.Duration("took", 1500*time.Millisecond))
	line := strings.TrimSuffix(buf.String(), "\n")
	for _, want := range []string{"time=", "level=WARN", `msg="watch out"`, " plain=abc", ` quoted="a b"`, " n=5", " took=1.5s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("text record missing %q: %q", want, line)
		}
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn, true)
	l.Debug("dropped")
	l.Info("dropped")
	if buf.Len() != 0 {
		t.Fatalf("below-gate records emitted: %q", buf.String())
	}
	l.Warn("kept")
	l.Error("kept")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("want 2 records, got %d: %q", got, buf.String())
	}

	off := NewLogger(&buf, LevelOff, true)
	off.Error("dropped")
	off.With("req", "r1").Error("dropped")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("LevelOff still emitted: %q", buf.String())
	}
}

func TestLoggerWithBindsFields(t *testing.T) {
	var buf bytes.Buffer
	fr := newFlightRecorder(4)
	l := fr.Logger(NewLogger(&buf, slog.LevelDebug, true)).With("worker", 2).With(slog.String("req", "r9"))
	l.Info("bound")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["worker"].(float64) != 2 || rec["req"] != "r9" {
		t.Fatalf("bound attrs missing from the next handler: %v", rec)
	}
	if ev := fr.Events(); len(ev) != 1 || ev[0].Msg != "bound worker=2 req=r9" {
		t.Fatalf("bound attrs missing from the ring: %v", ev)
	}
}

// TestLoggerNilSafe: a nil recorder keeps nothing but still passes records
// on, and a nil next handler drops them after the ring.
func TestLoggerNilSafe(t *testing.T) {
	var buf bytes.Buffer
	var nilFR *FlightRecorder
	nilFR.Logger(NewLogger(&buf, slog.LevelInfo, false)).Info("passed on", "k", "v")
	nilFR.Logger(nil).Error("dropped")
	if nilFR.Events() != nil || nilFR.Total() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if got := buf.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "passed on") {
		t.Fatalf("next handler got %q", got)
	}

	fr := newFlightRecorder(4)
	fr.Logger(nil).Error("kept")
	if fr.Total() != 1 {
		t.Fatalf("recorder behind a discarding next holds %d events, want 1", fr.Total())
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "off": LevelOff, "none": LevelOff,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("ParseLogLevel must reject unknown levels")
	}
}

// TestLoggerDisabledZeroAllocs is the benchmark guard the serving layer
// relies on: with logging off — below the gate or discarded — a log call
// in a hot path must not allocate.
func TestLoggerDisabledZeroAllocs(t *testing.T) {
	gated := NewLogger(io.Discard, slog.LevelError, true)
	dropped := slog.New(discard)
	err := errors.New("x")
	for name, l := range map[string]*slog.Logger{"gated": gated, "discard": dropped} {
		if n := testing.AllocsPerRun(200, func() {
			l.LogAttrs(bg, slog.LevelInfo, "dropped", slog.String("a", "b"), slog.Int("n", 1),
				slog.Duration("d", time.Second), slog.Bool("ok", true), slog.Any("error", err))
		}); n != 0 {
			t.Fatalf("%s logger allocates %v per call", name, n)
		}
	}
	if n := testing.AllocsPerRun(200, func() { dropped.Debug("dropped") }); n != 0 {
		t.Fatalf("discard logger allocates %v per Debug call", n)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	fr := newFlightRecorder(16)
	l := fr.Logger(NewLogger(&buf, slog.LevelDebug, true))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := l.With(slog.Int("goroutine", g))
			for i := 0; i < 50; i++ {
				child.LogAttrs(bg, slog.LevelInfo, "tick", slog.Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 || fr.Total() != 400 {
		t.Fatalf("want 400 records and ring events, got %d and %d", len(lines), fr.Total())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved write corrupted a record: %v\n%q", err, line)
		}
	}
}

// TestFlightHandlerBelowGate: the ring keeps every level, whatever the
// next handler's gate drops.
func TestFlightHandlerBelowGate(t *testing.T) {
	var buf bytes.Buffer
	fr := newFlightRecorder(8)
	l := fr.Logger(NewLogger(&buf, slog.LevelWarn, false))
	l.LogAttrs(bg, slog.LevelDebug, "begin-shard", Kind("phase"), slog.Int("shard", 3))
	l.Info("quiet")
	if buf.Len() != 0 {
		t.Fatalf("below-gate records reached the next handler: %q", buf.String())
	}
	ev := fr.Events()
	if len(ev) != 2 {
		t.Fatalf("ring holds %d events, want 2: %v", len(ev), ev)
	}
	if ev[0].Kind != "phase" || ev[0].Msg != "begin-shard shard=3" {
		t.Errorf("debug event = %+v", ev[0])
	}
	if ev[1].Kind != "INFO" || ev[1].Msg != "quiet" {
		t.Errorf("kind-less event must take its level name: %+v", ev[1])
	}
	if ev[0].UnixMicro == 0 {
		t.Error("event missing timestamp")
	}
}

// TestFlightHandlerKindAndWith: a kind attr, bound or per record, becomes
// Kind and stays out of Msg; other bound attrs render before the record's
// own, groups as dotted keys; the next handler sees the record unchanged.
func TestFlightHandlerKindAndWith(t *testing.T) {
	var buf bytes.Buffer
	fr := newFlightRecorder(8)
	l := fr.Logger(NewLogger(&buf, slog.LevelDebug, true)).With(slog.Int("worker", 2))
	l.LogAttrs(bg, slog.LevelWarn, "worker declared dead", Kind("detector"),
		slog.String("reason", "missed heartbeats"), slog.Duration("after", 3*time.Second))
	l.With(Kind("wire")).WithGroup("peer").Info("session reset", "id", 4, slog.Group("err", "code", 7))

	ev := fr.Events()
	if len(ev) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(ev))
	}
	if want := `worker declared dead worker=2 reason="missed heartbeats" after=3s`; ev[0].Kind != "detector" || ev[0].Msg != want {
		t.Errorf("event = %+v, want kind detector msg %q", ev[0], want)
	}
	if want := "session reset worker=2 peer.id=4 peer.err.code=7"; ev[1].Kind != "wire" || ev[1].Msg != want {
		t.Errorf("event = %+v, want kind wire msg %q", ev[1], want)
	}
	var rec map[string]any
	first, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	if err := json.Unmarshal(first, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["kind"] != "detector" || rec["worker"].(float64) != 2 || rec["reason"] != "missed heartbeats" {
		t.Fatalf("next handler record = %v", rec)
	}
}
