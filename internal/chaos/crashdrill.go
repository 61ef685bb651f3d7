package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hetsim/internal/fault"
	"hetsim/internal/sweep"
)

// CrashDrill is the process-level half of the durability story: it re-execs
// the real hetexp binary on the small campaign (`-small -exp all`, one
// sweep of every experiment's jobs) over a run cache, SIGKILLs it at
// seeded points mid-sweep — no cleanup, no signal handler — and then
// reruns the same command on the same cache in a fresh process. The cache
// is the only store the rerun resumes from. For every kill point it
// asserts the crash-safety invariants end to end:
//
//  1. The killed writer left no damage: scrubbing the cache before the
//     rerun finds no corrupt entry and no I/O error (leftover temp files
//     are quarantined, never served). Its healthy count H is the number
//     of entries the rerun inherits.
//  2. The rerun's stdout is byte-identical to an uninterrupted run.
//  3. Exactly the committed jobs are served: the rerun reports H cache
//     hits, Jobs − H simulations and no corrupt entry.
//  4. A scrub after the rerun comes back clean.
//
// Kills are triggered on progress thresholds, not wall-clock timers: the
// drill watches the child's own "sweep: N/M jobs" stderr counter and kills
// when a seeded threshold is crossed, so the drill lands mid-sweep
// regardless of how fast the host simulates.
type CrashDrill struct {
	// Hetexp is the path to a built hetexp binary (the drill re-execs it;
	// it never shells out to the Go toolchain itself).
	Hetexp string
	// Scratch is the drill's working directory (one subdirectory per
	// trial; caller owns cleanup).
	Scratch string
	// Points is how many seeded SIGKILL points to drill (<= 0 selects 24).
	Points int
	// Seed feeds the kill-point stream (0 is a valid seed).
	Seed uint64
	// Workers is the child's -j (<= 0 selects 4 — parallel workers keep
	// the kill window racing against concurrent cache commits).
	Workers int
	// Log, when set, receives per-trial progress lines.
	Log io.Writer
}

// CrashTrial records one kill-and-rerun cycle.
type CrashTrial struct {
	Threshold int  // progress count the kill was armed for
	Progress  int  // last progress observed when the kill was sent
	Killed    bool // false when the child finished before the kill landed
	Healthy   int  // committed cache entries the rerun inherited (H)
	Tmp       int  // leftover temp files quarantined before the rerun
	Executed  int  // simulations the rerun actually ran
}

// CrashReport summarizes a drill.
type CrashReport struct {
	Jobs   int // jobs per campaign (from the golden run)
	Trials []CrashTrial
}

// Partial counts trials whose kill landed strictly mid-campaign — some
// but not all jobs committed to the cache — the cases that exercise real
// recovery.
func (r *CrashReport) Partial() int {
	n := 0
	for _, t := range r.Trials {
		if t.Healthy > 0 && t.Healthy < r.Jobs {
			n++
		}
	}
	return n
}

// runStats mirrors hetexp's -stats-json schema (the drill's contract with
// the binary it drives).
type runStats struct {
	Sweep sweep.Stats       `json:"sweep"`
	Cache *sweep.CacheStats `json:"cache"`
}

// Run executes the drill and fails fast on the first violated invariant.
func (d *CrashDrill) Run() (*CrashReport, error) {
	points := d.Points
	if points <= 0 {
		points = 24
	}
	logf := func(format string, args ...any) {
		if d.Log != nil {
			fmt.Fprintf(d.Log, format, args...)
		}
	}

	// Golden run: one uninterrupted campaign in a pristine directory — the
	// byte-identity reference every rerun is compared against.
	goldenDir := filepath.Join(d.Scratch, "golden")
	golden, gst, _, _, err := d.exec(goldenDir, 0)
	if err != nil {
		return nil, fmt.Errorf("crash drill: golden run: %w", err)
	}
	jobs := gst.Sweep.Jobs
	if jobs < 2 || gst.Sweep.Executed != jobs {
		return nil, fmt.Errorf("crash drill: golden run stats %+v unusable (want >= 2 cold jobs)", gst.Sweep)
	}
	logf("crash drill: golden run: %d jobs, %d output bytes\n", jobs, len(golden))

	rep := &CrashReport{Jobs: jobs}
	rng := d.Seed
	for i := 0; i < points; i++ {
		// Seeded threshold in [1, jobs-1]: always after the first possible
		// commit, always before the campaign can be complete.
		threshold := 1 + int(fault.SplitMix64(&rng)%uint64(jobs-1))
		dir := filepath.Join(d.Scratch, fmt.Sprintf("trial-%02d", i))
		_, _, progress, killed, err := d.exec(dir, threshold)
		if killed {
			if err == nil {
				return rep, fmt.Errorf("crash drill: trial %d: SIGKILLed child exited cleanly", i)
			}
		} else if err != nil {
			return rep, fmt.Errorf("crash drill: trial %d: uninterrupted child failed: %w", i, err)
		}

		// Invariant 1: the killed writer left nothing corrupt, and the
		// healthy entries are what the rerun may serve.
		cache, err := sweep.Open(filepath.Join(dir, "cache"))
		if err != nil {
			return rep, fmt.Errorf("crash drill: trial %d: %w", i, err)
		}
		sr, err := cache.Scrub()
		if err != nil {
			return rep, fmt.Errorf("crash drill: trial %d: scrub: %w", i, err)
		}
		if sr.Corrupt != 0 || sr.IOErrors != 0 {
			return rep, fmt.Errorf("crash drill: trial %d: scrub found damage: %s", i, sr)
		}
		h := sr.Healthy

		out, st, _, _, err := d.exec(dir, 0) // rerun: same dir, no kill
		if err != nil {
			return rep, fmt.Errorf("crash drill: trial %d: rerun failed: %w", i, err)
		}
		// Invariant 2: byte-identical output.
		if !bytes.Equal(out, golden) {
			return rep, fmt.Errorf("crash drill: trial %d: rerun output differs from golden (%d vs %d bytes)",
				i, len(out), len(golden))
		}
		// Invariant 3: exact resume accounting — every committed job is
		// served from the cache, every other job is re-simulated.
		if st.Sweep.CacheHits != h || st.Sweep.Executed != jobs-h || st.Cache == nil || st.Cache.Corrupt != 0 {
			return rep, fmt.Errorf("crash drill: trial %d: rerun stats %+v, cache %+v; want %d served + %d executed, 0 corrupt (scrub: %s)",
				i, st.Sweep, st.Cache, h, jobs-h, sr)
		}
		// Invariant 4: the rerun left a clean store.
		if sr2, err := cache.Scrub(); err != nil || !sr2.Clean() {
			return rep, fmt.Errorf("crash drill: trial %d: second scrub not clean: %s (%v)", i, sr2, err)
		}

		rep.Trials = append(rep.Trials, CrashTrial{
			Threshold: threshold, Progress: progress, Killed: killed,
			Healthy: h, Tmp: sr.TmpFiles, Executed: st.Sweep.Executed,
		})
		logf("crash drill: trial %02d: kill@%d (saw %d, killed=%v) -> %d committed, %d tmp quarantined, %d re-simulated\n",
			i, threshold, progress, killed, h, sr.TmpFiles, st.Sweep.Executed)
		os.RemoveAll(dir) // keep the scratch footprint bounded
	}
	if rep.Partial() == 0 {
		return rep, fmt.Errorf("crash drill: no trial was killed mid-campaign (%d trials) — the drill exercised nothing", points)
	}
	return rep, nil
}

// exec runs one hetexp campaign rooted at dir (cache and stats live
// inside it). killAt > 0 arms a SIGKILL for the moment the child's
// progress counter reaches it; killAt <= 0 runs to completion and returns
// the parsed -stats-json.
func (d *CrashDrill) exec(dir string, killAt int) (stdout []byte, st *runStats, progress int, killed bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, false, err
	}
	workers := d.Workers
	if workers <= 0 {
		workers = 4
	}
	statsPath := filepath.Join(dir, "stats.json")
	cmd := exec.Command(d.Hetexp,
		"-small", "-exp", "all",
		"-j", strconv.Itoa(workers),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-stats-json", statsPath,
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, nil, 0, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, false, err
	}
	// Watchdog: a wedged child must fail the drill, not hang it.
	watchdog := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	// The child repaints its progress line with \r; split on both
	// terminators so every repaint is one token.
	sc := bufio.NewScanner(stderr)
	sc.Split(splitProgress)
	for sc.Scan() {
		if n, ok := parseProgress(sc.Text()); ok {
			progress = n
			if killAt > 0 && !killed && n >= killAt {
				cmd.Process.Kill() // SIGKILL: no handler, no cleanup, no flush
				killed = true
			}
		}
	}
	werr := cmd.Wait()
	if killed {
		return out.Bytes(), nil, progress, true, fmt.Errorf("killed at %d/%d: %w", progress, killAt, werr)
	}
	if werr != nil {
		return out.Bytes(), nil, progress, false, werr
	}
	b, err := os.ReadFile(statsPath)
	if err != nil {
		return nil, nil, progress, false, fmt.Errorf("reading %s: %w", statsPath, err)
	}
	st = &runStats{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, nil, progress, false, fmt.Errorf("decoding %s: %w", statsPath, err)
	}
	return out.Bytes(), st, progress, false, nil
}

// splitProgress tokenizes on \n and \r, so carriage-return repaints of
// the progress line arrive as separate tokens.
func splitProgress(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// parseProgress extracts N from a "sweep: N/M jobs" repaint. The final
// summary line ("sweep: 135 jobs, ...") has no slash and is ignored.
func parseProgress(line string) (int, bool) {
	const prefix = "sweep: "
	i := strings.Index(line, prefix)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(prefix):]
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:slash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
