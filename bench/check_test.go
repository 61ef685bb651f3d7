package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCheckOutput(t *testing.T) {
	out := []byte("== Table I: benchmark summary ==\nmatmul 1.00\n")
	want := sha256Hex(out)
	if err := checkOutput(out, want); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), out...)
	tampered[len(tampered)-2] = '1'
	var g gate
	g.record("campaign", checkOutput(out, want))
	g.record("campaign", checkOutput(tampered, want))
	if g.attempted != 2 || g.failed != 1 || len(g.failures) != 1 {
		t.Errorf("gate = %+v, want 2 attempted, 1 failed", g)
	}
}

func TestCheckStats(t *testing.T) {
	for _, tc := range []struct {
		stats string
		cold  bool
		ok    bool
	}{
		{`{"sweep":{"Jobs":147,"Executed":147,"CacheHits":0}}`, true, true},
		{`{"sweep":{"Jobs":147,"Executed":146,"CacheHits":1}}`, true, false},
		{`{"sweep":{"Jobs":0,"Executed":0}}`, true, false},
		{`{"sweep":{"Jobs":147,"Executed":0,"CacheHits":147}}`, false, true},
		{`{"sweep":{"Jobs":147,"Executed":1,"CacheHits":146}}`, false, false},
		{`not json`, false, false},
	} {
		if _, err := checkStats([]byte(tc.stats), tc.cold); (err == nil) != tc.ok {
			t.Errorf("checkStats(%s, cold=%v) = %v, want ok=%v", tc.stats, tc.cold, err, tc.ok)
		}
	}
}

// fakeHetexp stands in for hetexp: it exits cleanly and reports a full
// cold sweep, but prints a campaign whose output differs from the golden
// one.
const fakeHetexp = `#!/bin/sh
stats=
while [ $# -gt 0 ]; do
	[ "$1" = -stats-json ] && stats=$2
	shift
done
[ -n "$stats" ] && printf '{"sweep":{"Jobs":147,"Executed":147,"CacheHits":0}}' > "$stats"
echo "== Table I: benchmark summary =="
echo "matmul (tampered)"
`

// A campaign whose output was tampered with counts as a failure of the
// timed loop even though the program exited cleanly.
func TestTamperedCampaignCountsAsFailure(t *testing.T) {
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "hetexp"), []byte(fakeHetexp), 0o755); err != nil {
		t.Fatal(err)
	}
	c := runConfig{workload: "campaign-cold", seed: 1, seconds: 200 * time.Millisecond, bin: bin, tmp: t.TempDir()}
	r, err := campaignLoop(context.Background(), c, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.gate.attempted == 0 || r.gate.failed != r.gate.attempted {
		t.Fatalf("gate = %d attempted, %d failed; want every campaign failed", r.gate.attempted, r.gate.failed)
	}
	if !strings.Contains(r.gate.failures[0], "sha256") {
		t.Errorf("failure %q does not name the digest mismatch", r.gate.failures[0])
	}
	if len(r.Campaigns) != r.gate.attempted || len(r.Setups) != setupLaunches {
		t.Errorf("%d campaigns, %d set-ups recorded", len(r.Campaigns), len(r.Setups))
	}
}
