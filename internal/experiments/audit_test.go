package experiments

import (
	"testing"

	"sightrisk/internal/core"
	"sightrisk/internal/synthetic"
)

// TestAuditRobustnessPasses runs the determinism auditor on a reduced
// robustness matrix and demands a clean verdict for every topology —
// the in-suite version of `make audit`. Any reintroduced source of
// run-to-run noise (map-order float summation, unseeded RNG, racy
// merge order) fails here with the first divergent owner or event in
// the message.
func TestAuditRobustnessPasses(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 4
	cfg.Ego.Strangers = 250
	verdicts, err := AuditRobustness(cfg, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(verdicts))
	}
	for _, v := range verdicts {
		if v.Events == 0 {
			t.Errorf("%s: no events audited", v.Topology)
		}
		if !v.Passed {
			t.Errorf("%s diverged:\n%s", v.Topology, v.Detail)
		}
	}
}

// TestAuditDetectsDivergence: feeding the differ two runs of different
// seeds must localize a divergence — otherwise a pass proves nothing.
func TestAuditDetectsDivergence(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 2
	cfg.Ego.Strangers = 150
	coreCfg := core.DefaultConfig()
	a, err := auditedRun(cfg, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := auditedRun(cfg, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	var detail []string
	for i := range a.study.Owners {
		if a.study.Owners[i].Fingerprint() != b.study.Owners[i].Fingerprint() {
			detail = append(detail, "fingerprint mismatch")
			break
		}
	}
	if len(detail) == 0 {
		t.Fatal("different seeds produced identical owner fingerprints")
	}
	if rowsEqual(a.row, b.row) && a.trail[len(a.trail)-1].Chain == b.trail[len(b.trail)-1].Chain {
		t.Fatal("different seeds produced identical trails and rows")
	}
}
