package chaos

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestCrashDrill builds the real hetexp binary and runs the kill-9 drill
// against it. Plain `go test` drills a handful of points from seed 1 to
// stay fast in the tier-1 suite; `make crash-drill` raises the count to
// the full 24 via HETSIM_CRASH_POINTS and draws a fresh HETSIM_CRASH_SEED
// per run. The test logs its seed with the command that replays it.
func TestCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drill re-execs hetexp; skipped under -short")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "hetexp")
	build := exec.Command("go", "build", "-o", bin, "hetsim/cmd/hetexp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hetexp: %v\n%s", err, out)
	}

	points := 6
	if s := os.Getenv("HETSIM_CRASH_POINTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad HETSIM_CRASH_POINTS %q", s)
		}
		points = n
	}
	var seed uint64 = 1
	if s := os.Getenv("HETSIM_CRASH_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HETSIM_CRASH_SEED %q", s)
		}
		seed = n
	}
	t.Logf("crash drill: seed %d; replay with: make crash-drill CRASH_POINTS=%d CRASH_SEED=%d", seed, points, seed)

	d := &CrashDrill{
		Hetexp:  bin,
		Scratch: scratch,
		Points:  points,
		Seed:    seed,
		Log:     testWriter{t},
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != points {
		t.Fatalf("completed %d/%d trials", len(rep.Trials), points)
	}
	t.Logf("crash drill: %d/%d trials killed mid-campaign (%d jobs each)",
		rep.Partial(), points, rep.Jobs)
}

// testWriter routes drill progress into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestParseProgress pins the drill's contract with hetexp's progress line.
func TestParseProgress(t *testing.T) {
	cases := []struct {
		line string
		n    int
		ok   bool
	}{
		{"sweep: 12/60 jobs (3 cached)", 12, true},
		{"\rsweep: 1/60 jobs (0 cached)", 1, true},
		{"sweep: 60 jobs, 60 simulated, 0 served from cache", 0, false},
		{"cache: 2 unusable entr(ies) re-simulated", 0, false},
		{"measuring kernel suite (each kernel on 6 configurations, 4 workers)...", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		n, ok := parseProgress(c.line)
		if n != c.n || ok != c.ok {
			t.Errorf("parseProgress(%q) = %d,%v want %d,%v", c.line, n, ok, c.n, c.ok)
		}
	}
}
