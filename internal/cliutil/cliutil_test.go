package cliutil

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"supmr"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"0":     0,
		"64":    64,
		"64k":   64 << 10,
		"4m":    4 << 20,
		"2g":    2 << 30,
		"1.5m":  3 << 19,
		" 8K ":  8 << 10,
		"0.5g":  1 << 29,
		"100M ": 100 << 20,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "x", "12q", "-5m", "m"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestParseDuration(t *testing.T) {
	if d, err := ParseDuration("150ms"); err != nil || d != 150*time.Millisecond {
		t.Errorf("ParseDuration = %v, %v", d, err)
	}
	if _, err := ParseDuration("nope"); err == nil {
		t.Error("bad duration accepted")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KB",
		3 << 20: "3.1MB",
		2e9:     "2.0GB",
		155e9:   "155.0GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	if got := FormatSeconds(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("FormatSeconds = %q", got)
	}
}

func TestParseCount(t *testing.T) {
	if n, err := ParseCount(" 4 ", 1); err != nil || n != 4 {
		t.Errorf("ParseCount(4) = %d, %v", n, err)
	}
	if n, err := ParseCount("1", 1); err != nil || n != 1 {
		t.Errorf("ParseCount(1) = %d, %v", n, err)
	}
	for _, bad := range []string{"", "x", "2.5", "-1", "0"} {
		if _, err := ParseCount(bad, 1); err == nil {
			t.Errorf("ParseCount(%q) accepted", bad)
		}
	}
	if _, err := ParseCount("2", 3); err == nil {
		t.Error("count below minimum accepted")
	}
}

// TestKnobErrorsAreDescriptive pins the error text the CLIs surface for
// the ingest/budget knobs: the message must carry the offending value
// so `supmr -io-lanes 0` and friends fail with an explanation, not just
// a usage dump.
func TestKnobErrorsAreDescriptive(t *testing.T) {
	if _, err := ParseCount("0", 1); err == nil || !strings.Contains(err.Error(), "below minimum 1") {
		t.Errorf("ParseCount(0): %v", err)
	}
	if _, err := ParseCount("-4", 1); err == nil || !strings.Contains(err.Error(), "below minimum 1") {
		t.Errorf("ParseCount(-4): %v", err)
	}
	if _, err := ParseSize("-5m"); err == nil || !strings.Contains(err.Error(), "negative size") {
		t.Errorf("ParseSize(-5m): %v", err)
	}
	// The submit path's -weight knob rides ParseCount with minimum 1: a
	// zero or negative fair-share weight must carry both the value and
	// the floor, since the scheduler treats weight 0 as "default" only
	// when the field is omitted programmatically, never via the flag.
	for _, bad := range []string{"0", "-3"} {
		_, err := ParseCount(bad, 1)
		if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "below minimum 1") {
			t.Errorf("ParseCount(%s) as -weight: %v", bad, err)
		}
	}
	if _, err := ParseCount("heavy", 1); err == nil || !strings.Contains(err.Error(), "heavy") {
		t.Errorf("ParseCount(heavy) as -weight: %v", err)
	}
}

func TestExitCode(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Errorf("ExitCode(nil) = %d", got)
	}
	if got := ExitCode(errors.New("plain")); got != 1 {
		t.Errorf("plain error = %d, want 1", got)
	}
	// A refused configuration exits 2, however deeply it is wrapped.
	refused := &supmr.ConfigError{Knob: "Memo", With: "RuntimeTraditional", Reason: "one round"}
	for _, err := range []error{refused, fmt.Errorf("jobspec: %w", refused), fmt.Errorf("run: %w", fmt.Errorf("jobspec: %w", refused))} {
		if got := ExitCode(err); got != 2 {
			t.Errorf("%v: exit %d, want 2", err, got)
		}
	}
}
