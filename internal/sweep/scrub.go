package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// QuarantineDir is the subdirectory of a cache root that Scrub moves
// unusable files into. Get never looks inside it, so a quarantined file
// can neither serve as a hit nor cost a corrupt-miss ever again, but it
// stays on disk for post-mortems instead of being deleted.
const QuarantineDir = ".quarantine"

// ScrubReport summarizes one Scrub pass over a cache directory.
type ScrubReport struct {
	Scanned  int `json:"scanned"`   // entry files examined
	Healthy  int `json:"healthy"`   // verified entries of the current sweep.Version
	Stale    int `json:"stale"`     // self-consistent entries of another Version (left in place)
	Corrupt  int `json:"corrupt"`   // unusable entries quarantined (unreadable, torn, mishashed)
	TmpFiles int `json:"tmp_files"` // leftover temp files from killed writers, quarantined
	IOErrors int `json:"io_errors"` // files the scrub could not read or move (left in place)
}

// String renders the report the way hetexp and hetsimd print it.
func (r ScrubReport) String() string {
	return fmt.Sprintf("%d scanned, %d healthy, %d stale, %d corrupt quarantined, %d tmp quarantined, %d io errors",
		r.Scanned, r.Healthy, r.Stale, r.Corrupt, r.TmpFiles, r.IOErrors)
}

// Clean reports whether the scrub found nothing to quarantine and hit no
// I/O trouble — the post-crash-drill acceptance condition.
func (r ScrubReport) Clean() bool {
	return r.Corrupt == 0 && r.TmpFiles == 0 && r.IOErrors == 0
}

// scrubbers bounds Scrub's concurrent directory walkers.
const scrubbers = 4

// Scrub walks the store and quarantines everything a crashed or killed
// writer can leave behind: leftover *.tmp files (a SIGKILL between
// CreateTemp and rename), torn or undecodable entries (a torn copy, disk
// corruption), and entries whose file name does not match the hash of
// their recorded (version, key) — an orphan that could never be a
// legitimate hit. Self-consistent entries of an older sweep.Version are
// counted stale but left alone: they are unreachable (the version is part
// of the path hash) and a shared cache directory may still be serving an
// older binary. Scrub takes no locks — concurrent writers commit via
// rename, so the worst race is quarantining a temp file an instant before
// its rename, which costs that writer a WriteFail, never corruption.
func (c *Cache) Scrub() (ScrubReport, error) {
	tops, err := os.ReadDir(c.dir)
	if err != nil {
		return ScrubReport{}, fmt.Errorf("sweep: scrub: %w", err)
	}
	var subs []string
	for _, top := range tops {
		if top.IsDir() && isFanoutDir(top.Name()) {
			subs = append(subs, top.Name()) // not the quarantine area, nor a file that was never ours
		}
	}
	// The fanout directories are disjoint, so scrubbers share nothing but
	// the next index; each keeps its own report. A filled cache is
	// hundreds of small reads, and a hetexp -scrub or a hetsimd start
	// waits for all of them.
	reps := make([]ScrubReport, min(runtime.GOMAXPROCS(0), scrubbers, len(subs)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range reps {
		wg.Add(1)
		go func(r *ScrubReport) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(subs); i = int(next.Add(1)) - 1 {
				c.scrubFanout(subs[i], r)
			}
		}(&reps[w])
	}
	wg.Wait()
	var r ScrubReport
	for _, w := range reps {
		r.Scanned += w.Scanned
		r.Healthy += w.Healthy
		r.Stale += w.Stale
		r.Corrupt += w.Corrupt
		r.TmpFiles += w.TmpFiles
		r.IOErrors += w.IOErrors
	}
	return r, nil
}

// scrubFanout classifies every file of one fanout directory into r and
// quarantines what is unusable.
func (c *Cache) scrubFanout(sub string, r *ScrubReport) {
	files, err := os.ReadDir(filepath.Join(c.dir, sub))
	if err != nil {
		r.IOErrors++
		return
	}
	for _, fe := range files {
		if fe.IsDir() {
			continue
		}
		name := fe.Name()
		rel := filepath.Join(sub, name)
		class := classifyEntry(c.dir, sub, name)
		if class != entryTmp {
			r.Scanned++
		}
		switch class {
		case entryHealthy:
			r.Healthy++
		case entryStale:
			r.Stale++
		case entryUnreadable:
			r.IOErrors++
		case entryTmp:
			if c.quarantine(rel) {
				r.TmpFiles++
			} else {
				r.IOErrors++
			}
		case entryCorrupt:
			if c.quarantine(rel) {
				r.Corrupt++
			} else {
				r.IOErrors++
			}
		}
	}
}

type entryClass int

const (
	entryHealthy entryClass = iota
	entryStale
	entryTmp
	entryCorrupt
	entryUnreadable
)

// isFanoutDir recognizes the 256-way two-hex-digit fanout directories.
func isFanoutDir(name string) bool {
	if len(name) != 2 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// classifyEntry decides what one file inside a fanout directory is.
func classifyEntry(root, sub, name string) entryClass {
	if strings.Contains(name, ".tmp") {
		return entryTmp // CreateTemp names are <hash>.json.tmp<random>
	}
	if !strings.HasSuffix(name, ".json") {
		return entryCorrupt // not a name any writer of ours produces
	}
	b, err := os.ReadFile(filepath.Join(root, sub, name))
	if err != nil {
		return entryUnreadable // maybe transient: leave it, count the trouble
	}
	var e entry
	if json.Unmarshal(b, &e) != nil || e.Key == "" || len(e.Value) == 0 {
		return entryCorrupt
	}
	// The file's own name must be the hash of its recorded version and
	// key — the content-addressing invariant. A mismatch means the entry
	// can never be a legitimate hit for any lookup.
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s", e.Version, e.Key)))
	h := hex.EncodeToString(sum[:])
	if sub != h[:2] || name != h[2:]+".json" {
		return entryCorrupt
	}
	if e.Version != Version {
		return entryStale
	}
	return entryHealthy
}

// quarantine moves rel (a path under the cache root) into the quarantine
// area, preserving its fanout subpath and never overwriting an earlier
// quarantined file of the same name.
func (c *Cache) quarantine(rel string) bool {
	dst := filepath.Join(c.dir, QuarantineDir, rel)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return false
	}
	for i := 0; ; i++ {
		try := dst
		if i > 0 {
			try = fmt.Sprintf("%s.%d", dst, i)
		}
		if _, err := os.Lstat(try); err == nil {
			continue // occupied: probe the next suffix
		}
		if err := os.Rename(filepath.Join(c.dir, rel), try); err != nil {
			return false
		}
		return true
	}
}
