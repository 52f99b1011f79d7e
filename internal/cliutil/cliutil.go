// Package cliutil holds the small parsing/formatting helpers the
// command-line tools share.
package cliutil

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"supmr"
)

// ParseSize parses a byte count with optional binary suffix: "64",
// "64k", "4m", "2g" (case-insensitive, fractional values allowed:
// "1.5m").
func ParseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("cliutil: negative size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// ParseCount parses a small positive integer flag value (lane counts,
// read-ahead depths): plain digits, at least min.
func ParseCount(s string, min int) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad count %q", s)
	}
	if v < min {
		return 0, fmt.Errorf("cliutil: count %d below minimum %d", v, min)
	}
	return v, nil
}

// ParseDuration wraps time.ParseDuration with a friendlier error.
func ParseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad duration %q", s)
	}
	return d, nil
}

// FormatBytes renders a byte count with a decimal unit suffix, the way
// the paper writes sizes (1 GB = 1e9).
func FormatBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fKB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatSeconds renders a duration as the paper's table cells do.
func FormatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// ExitCode maps an error to the process exit status the CLI should
// use: 0 for nil, 2 for a refused configuration (a *supmr.ConfigError,
// however wrapped), 1 otherwise.
func ExitCode(err error) int {
	var ce *supmr.ConfigError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ce):
		return 2
	}
	return 1
}

// OnOff is a boolean flag value that also accepts on/off, so an
// ablation reads naturally as -flatcombiner=off or -memo=off.
type OnOff bool

func (f *OnOff) String() string {
	if bool(*f) {
		return "on"
	}
	return "off"
}

func (f *OnOff) Set(s string) error {
	switch strings.ToLower(s) {
	case "on", "true", "1", "yes":
		*f = true
	case "off", "false", "0", "no":
		*f = false
	default:
		return fmt.Errorf("invalid value %q (want on or off)", s)
	}
	return nil
}

func (f *OnOff) IsBoolFlag() bool { return true }
