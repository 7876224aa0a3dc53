package main

import (
	"strings"
	"testing"
)

// TestSelectSteps: -only picks steps in table order, case-insensitively,
// and an unknown id is refused with the valid ids listed rather than
// silently running nothing.
func TestSelectSteps(t *testing.T) {
	table := paperSteps(1, 1, 8)
	all, err := selectSteps(table, "")
	if err != nil || len(all) != len(table) {
		t.Fatalf("empty -only = %d steps, %v; want all %d", len(all), err, len(table))
	}
	got, err := selectSteps(table, "Headline, fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "fig4" || got[1].id != "headline" {
		t.Fatalf("-only Headline,fig4 = %v, want [fig4 headline]", ids(got))
	}
	for _, bad := range []string{"fig44", "fig4,nope", "fig4,"} {
		_, err := selectSteps(table, bad)
		if err == nil {
			t.Fatalf("-only %s accepted", bad)
		}
		if !strings.Contains(err.Error(), strings.Join(ids(table), ", ")) {
			t.Errorf("-only %s: error %q does not list the valid steps", bad, err)
		}
	}
}

// TestPickMode: at most one benchmark or audit mode per invocation; two
// are refused with every mode listed instead of one being ignored.
func TestPickMode(t *testing.T) {
	modes := func(set ...string) []mode {
		var ms []mode
		for _, f := range []string{"-ldp", "-incremental", "-scale sweep", "-nodes", "-audit", "-tenants"} {
			on := false
			for _, s := range set {
				on = on || s == f
			}
			ms = append(ms, mode{flag: f, set: on})
		}
		return ms
	}
	if m, err := pickMode(modes()); m != nil || err != nil {
		t.Fatalf("no mode set = %v, %v; want nil, nil", m, err)
	}
	if m, err := pickMode(modes("-audit")); err != nil || m == nil || m.flag != "-audit" {
		t.Fatalf("-audit alone = %v, %v", m, err)
	}
	_, err := pickMode(modes("-ldp", "-incremental"))
	if err == nil {
		t.Fatal("-ldp -incremental accepted")
	}
	for _, f := range []string{"-ldp", "-incremental", "-scale sweep", "-nodes", "-audit", "-tenants"} {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error %q does not list %s", err, f)
		}
	}
}

func ids(steps []step) []string {
	var out []string
	for _, s := range steps {
		out = append(out, s.id)
	}
	return out
}
