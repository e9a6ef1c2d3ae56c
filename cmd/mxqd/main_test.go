package main

import "testing"

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"268435456", 1 << 28, true},
		{"256M", 1 << 28, true},
		{"256MB", 1 << 28, true},
		{" 256 MiB ", 1 << 28, true},
		{"4K", 4 << 10, true},
		{"4G", 4 << 30, true},
		{"2TiB", 2 << 40, true},
		{"8388607T", 8388607 << 40, true}, // the largest T count that fits
		{"8388608T", 0, false},            // 2^63
		{"16777216T", 0, false},           // 2^64: wrapped to 0 = "unlimited"
		{"9223372036854775807K", 0, false},
		{"9223372036854775808", 0, false},
		{"-1", 0, false},
		{"-1K", 0, false},
		{"", 0, false},
		{"M", 0, false},
		{"12XB", 0, false},
		{"256B", 0, false},
	} {
		got, err := parseBytes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
