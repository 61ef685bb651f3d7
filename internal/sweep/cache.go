package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// residentLimit bounds the bytes (keys plus values) a Cache keeps
// resident. A full campaign's 135 entries take about 33 KB; past the
// bound nothing more is admitted, nothing is evicted, and later reads of
// the entries left out go to disk.
const residentLimit = 16 << 20

// Cache is the content-addressed run cache: one JSON file per completed
// job, addressed by the SHA-256 of the versioned job key. Entries store
// the full key alongside the value, so a (vanishingly unlikely) hash
// collision or a truncated file degrades to a miss, never to a wrong
// result. Writes go through a temp file plus rename, so concurrent
// workers — or concurrent processes sharing a cache directory — can race
// on the same key without corrupting it.
//
// A Cache pays for each entry once per process. An entry never changes
// once it is renamed into place, so the value of every validated disk
// hit and every successful Put stays resident (up to residentLimit) and
// later Gets of its key read no file. The price is that a live process
// does not see an out-of-band edit of its directory until it is reopened.
// The first Put creates the 256 fanout directories and fsyncs the root;
// no later Put stats, creates or fsyncs anything above its entry's own
// fanout directory.
type Cache struct {
	dir string

	// Faults, when set, injects failures into write's crash windows, so
	// Put returns ErrInjectedWriteFault exactly where a failing disk would
	// return its error (tests and drills only; nil costs nothing).
	Faults *WriteFaults

	mu       sync.RWMutex
	resident map[string]json.RawMessage // validated values, by key
	resBytes int                        // len(key)+len(value) over resident

	prepMu    sync.Mutex
	prepared  atomic.Bool   // the fanout directories exist and the root is fsynced
	rootSyncs atomic.Uint64 // fsyncs of the cache root

	hits    atomic.Uint64
	resHits atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	writes  atomic.Uint64
	flushEr atomic.Uint64
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits       uint64 // get served, from memory or from disk
	Resident   uint64 // of the hits: served from memory, no file read
	Misses     uint64 // get found nothing usable
	Corrupt    uint64 // of the misses: entry existed but was unusable (truncated, mismatched)
	Writes     uint64 // entries written
	WriteFails uint64 // entries that could not be written (non-fatal)
}

// Open creates (if needed) and opens a cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Stats snapshots the traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:       c.hits.Load(),
		Resident:   c.resHits.Load(),
		Misses:     c.misses.Load(),
		Corrupt:    c.corrupt.Load(),
		Writes:     c.writes.Load(),
		WriteFails: c.flushEr.Load(),
	}
}

// entry is the on-disk format.
type entry struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Value   json.RawMessage `json:"value"`
}

// path maps a job key to its cache file, fanned out over 256 two-hex-digit
// subdirectories so huge sweeps don't pile every entry into one directory.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte("v" + strconv.Itoa(Version) + "|" + key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, h[:2], h[2:]+".json")
}

// Get decodes the cached value for key into out (a pointer). Any problem
// — absent file, unreadable JSON, version or key mismatch — is a miss,
// never an error: a zero-length or truncated entry (an interrupted writer
// on a non-atomic filesystem, a torn copy) must only cost a
// re-simulation. Unusable-but-present entries are additionally counted in
// CacheStats.Corrupt so an ailing cache directory is visible in the sweep
// stats instead of silently re-simulating forever. A *json.RawMessage
// out (campaign points and the server) takes the validated value itself;
// a typed out (chaos trials, whose engine jobs are
// sweep.Job[chaos.Trial]) is decoded from it. A resident value is served
// without touching the disk or hashing the key.
func (c *Cache) Get(key string, out any) bool {
	c.mu.RLock()
	v, resident := c.resident[key]
	c.mu.RUnlock()
	if !resident {
		b, err := os.ReadFile(c.path(key))
		if err != nil {
			c.misses.Add(1)
			return false
		}
		var e entry
		if json.Unmarshal(b, &e) == nil && e.Version == Version && e.Key == key {
			v = e.Value
		}
	}
	ok := len(v) > 0
	if raw, isRaw := out.(*json.RawMessage); ok && isRaw {
		// Capped, so a caller's append copies instead of writing into
		// the resident bytes.
		*raw = v[:len(v):len(v)]
	} else if ok {
		ok = json.Unmarshal(v, out) == nil
	}
	if !ok {
		c.misses.Add(1)
		c.corrupt.Add(1)
		return false
	}
	c.hits.Add(1)
	if resident {
		c.resHits.Add(1)
	} else {
		c.admit(key, v)
	}
	return true
}

// admit makes v the resident value of key, or drops key when v does not
// fit under residentLimit. A nil v only drops key.
func (c *Cache) admit(key string, v json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.resident[key]; ok {
		delete(c.resident, key)
		c.resBytes -= len(key) + len(old)
	}
	if n := len(key) + len(v); v != nil && c.resBytes+n <= residentLimit {
		if c.resident == nil {
			c.resident = make(map[string]json.RawMessage)
		}
		c.resident[key] = v
		c.resBytes += n
	}
}

// Put stores the value for key and reports what went wrong. For the
// sweep engine a failed write is best-effort (counted, never fatal: a
// cache that cannot persist only costs a future re-simulation); the
// service layer treats the returned error as retryable and re-attempts
// the write without re-running the simulation. The durability contract
// (every window crash-drilled, see DESIGN.md §14): the temp file is
// fsynced before the rename and the parent directory is fsynced after
// it, so once Put returns the entry survives a host crash — and a crash
// at any earlier point leaves a stale entry or none, never a torn one
// that could serve as a hit.
//
// A successful Put makes its value resident; a failed one drops the key
// from memory, so the next Get reads whatever the disk holds.
func (c *Cache) Put(key string, v any) error {
	raw, err := c.write(key, v) // nil on error
	if err != nil {
		c.flushEr.Add(1)
	} else {
		c.writes.Add(1)
	}
	c.admit(key, raw)
	return err
}

// prepare creates the 256 fanout directories and fsyncs the cache root
// once, so that no entry's directory can be lost by a crash and no Put
// after the first pays for it. A failure is returned to the Put that
// met it and retried by the next one.
func (c *Cache) prepare() error {
	if c.prepared.Load() {
		return nil
	}
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if c.prepared.Load() {
		return nil
	}
	for i := 0; i < 256; i++ {
		if err := os.MkdirAll(filepath.Join(c.dir, hex.EncodeToString([]byte{byte(i)})), 0o755); err != nil {
			return fmt.Errorf("sweep: cache fanout: %w", err)
		}
	}
	c.rootSyncs.Add(1)
	if err := syncDir(c.dir); err != nil {
		return fmt.Errorf("sweep: cache root fsync: %w", err)
	}
	c.prepared.Store(true)
	return nil
}

// write commits one entry and returns the value bytes it stored.
func (c *Cache) write(key string, v any) (json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding cache value: %w", err)
	}
	b, err := json.Marshal(entry{Version: Version, Key: key, Value: raw})
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding cache entry: %w", err)
	}
	if err := c.prepare(); err != nil {
		return nil, err
	}
	path := c.path(key)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// The fanout directory was removed behind the process's
			// back: the next Put prepares the fanout again.
			c.prepared.Store(false)
		}
		return nil, fmt.Errorf("sweep: cache write: %w", err)
	}
	if err = c.Faults.fail(FaultTempWrite, key); err == nil {
		_, err = tmp.Write(b)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("sweep: cache write: %w", err)
	}
	if err = c.Faults.fail(FaultSync, key); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("sweep: cache fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("sweep: cache write: %w", err)
	}
	if err = c.Faults.fail(FaultRename, key); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("sweep: cache write: %w", err)
	}
	// The rename is not durable until the directory that holds the new
	// name is — the gap the Put comment used to admit to: a crash right
	// after Put could lose a committed entry. A dir-fsync failure leaves
	// the entry present and valid (only its durability is unknown), so
	// the error is honest but a subsequent Get is still a correct hit.
	if err = c.Faults.fail(FaultDirSync, key); err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: cache directory fsync: %w", err)
	}
	return raw, nil
}

// syncDir fsyncs a directory, making renames and creations inside it
// durable. Every crash-safety path (cache commit, journal repair) funnels
// through here.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
