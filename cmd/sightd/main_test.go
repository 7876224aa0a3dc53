package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"sightrisk/internal/fleet"
)

// TestLimitFlags: -limit parses tenant=maxActive:maxQueries, 0 means
// unlimited, and a negative or malformed field is a usage error that
// names the field instead of silently meaning "unlimited".
func TestLimitFlags(t *testing.T) {
	parse := func(args ...string) (limitFlags, error) {
		l := limitFlags{}
		fs := flag.NewFlagSet("sightd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Var(l, "limit", "")
		return l, fs.Parse(args)
	}

	l, err := parse("-limit", "a=4:1000", "-limit", "b=0:0")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l["a"], (fleet.TenantLimits{MaxActive: 4, MaxQueries: 1000}); got != want {
		t.Errorf("a=4:1000 parsed as %+v, want %+v", got, want)
	}
	if got, ok := l["b"]; !ok || got != (fleet.TenantLimits{}) {
		t.Errorf("b=0:0 parsed as %+v (present %v), want unlimited", got, ok)
	}

	for _, tc := range []struct{ entry, field string }{
		{"t=-1:50", "maxActive"},
		{"t=2:-5", "maxQueries"},
		{"t=x:50", "maxActive"},
		{"t=2:", "maxQueries"},
		{"t=2", "tenant=maxActive:maxQueries"},
		{"t", "tenant=maxActive:maxQueries"},
	} {
		_, err := parse("-limit", tc.entry)
		if err == nil {
			t.Errorf("-limit %s accepted", tc.entry)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("-limit %s: error %q does not name %s", tc.entry, err, tc.field)
		}
	}
}
