package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Journal is the crash-safety layer under a campaign: an append-only,
// per-record-checksummed, fsync'd log of completed jobs. The run cache
// makes repeated campaigns cheap, but its durability is best-effort (a
// write failure is only a future miss); the journal is the authoritative
// record a resumed campaign replays. The contract:
//
//   - Append returns only after the record is fsync'd: a job the engine
//     reported complete survives SIGKILL, OOM-kill and power loss.
//   - OpenJournal replays the longest valid prefix and truncates the rest:
//     a record torn by a crash mid-write (or corrupted on disk) costs
//     exactly the jobs from that record on — never a wrong or duplicated
//     result, because every record carries a CRC-32C over its payload and
//     an undecodable or checksum-failing record ends the replay.
//   - The header pins sweep.Version, the record format: a journal of
//     another format is discarded whole (the resumed campaign
//     re-simulates). A model change needs no header check: it changes
//     the job keys, so old records are never looked up.
//
// A journal is owned by one process at a time; the engine serializes
// appends internally. Replayed values live in memory (campaign results
// are small JSON documents), so Lookup is a map probe.
//
// On-disk format, line-oriented (JSON escapes every raw newline, so a
// record is exactly one line):
//
//	hetsim-journal v1 sweep=<Version>\n
//	<crc32c %08x> {"k":<key>,"v":<value>}\n
//	...
type Journal struct {
	path string
	f    *os.File

	mu       sync.Mutex
	vals     map[string]json.RawMessage
	size     int64 // committed file length; write failures truncate back to it
	replayed int
	torn     int
	appended int
	failures int
}

// JournalStats describes what a journal recovered and recorded.
type JournalStats struct {
	Replayed    int `json:"replayed"`     // records recovered at open
	TornBytes   int `json:"torn_bytes"`   // unusable tail bytes truncated at open
	Appended    int `json:"appended"`     // records fsync'd this session
	AppendFails int `json:"append_fails"` // records that could not be made durable
}

// crc32c is the CRC-32C checksum of a record payload. crc32.MakeTable
// builds the table once per process, on first use, so a process that
// journals nothing never pays for it.
func crc32c(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
}

// journalHeader is the first line of every journal file; it pins the
// journal format version and the sweep.Version of the recorded entries.
func journalHeader() []byte {
	return []byte(fmt.Sprintf("hetsim-journal v1 sweep=%d\n", Version))
}

// journalPayload is the JSON body of one record.
type journalPayload struct {
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v"`
}

// journalRecord is one decoded record.
type journalRecord struct {
	Key   string
	Value json.RawMessage
}

// appendRecordLine encodes one record: CRC-32C of the payload in fixed-
// width hex, a space, the payload, a newline.
func appendRecordLine(dst, payload []byte) []byte {
	dst = append(dst, fmt.Sprintf("%08x ", crc32c(payload))...)
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// parseRecordLine decodes one line (without its newline). ok reports a
// well-formed, checksum-verified, decodable record.
func parseRecordLine(line []byte) (journalRecord, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return journalRecord{}, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return journalRecord{}, false
	}
	payload := line[9:]
	if crc32c(payload) != uint32(want) {
		return journalRecord{}, false
	}
	var p journalPayload
	if json.Unmarshal(payload, &p) != nil || p.Key == "" || len(p.Value) == 0 {
		return journalRecord{}, false
	}
	return journalRecord{Key: p.Key, Value: p.Value}, true
}

// parseJournal scans data and returns the records of the longest valid
// prefix plus that prefix's length in bytes. good == 0 means the header is
// absent, malformed, or names a different sweep.Version — the whole file
// is unusable (the caller starts over; stale results are never replayed).
// The first torn or corrupted record ends the scan: everything after it is
// untrusted, so recovery resumes from the last good record.
func parseJournal(data []byte) (recs []journalRecord, good int) {
	hdr := journalHeader()
	if len(data) < len(hdr) || !bytes.Equal(data[:len(hdr)], hdr) {
		return nil, 0
	}
	good = len(hdr)
	for off := good; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: the record never finished writing
		}
		rec, ok := parseRecordLine(data[off : off+nl])
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		good = off
	}
	return recs, good
}

// OpenJournal opens (creating if needed) the journal at path, replays its
// valid prefix, truncates any torn or corrupt tail, and leaves the file
// positioned for appends. The repair itself is made durable (file and
// parent directory fsync'd) before OpenJournal returns.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	recs, good := parseJournal(data)
	j := &Journal{
		path:     path,
		f:        f,
		vals:     make(map[string]json.RawMessage, len(recs)),
		replayed: len(recs),
		torn:     len(data) - good,
	}
	if good == 0 {
		// Fresh file, or one whose header is unusable or from another
		// sweep.Version: start over with a clean header.
		hdr := journalHeader()
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(hdr, 0)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: resetting journal: %w", err)
		}
		good = len(hdr)
	} else if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: truncating torn journal tail: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: journal fsync: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: journal directory fsync: %w", err)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: seeking journal: %w", err)
	}
	j.size = int64(good)
	for _, r := range recs {
		j.vals[r.Key] = r.Value
	}
	return j, nil
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct completed jobs the journal holds
// (replayed plus appended).
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.vals)
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Replayed: j.replayed, TornBytes: j.torn,
		Appended: j.appended, AppendFails: j.failures}
}

// Lookup decodes the journaled value for key into out (a pointer) and
// reports whether the journal holds the key. Like the cache, a value that
// fails to decode is a miss, never an error.
func (j *Journal) Lookup(key string, out any) bool {
	j.mu.Lock()
	raw, ok := j.vals[key]
	j.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Append records a completed job and returns once the record is durable
// (written and fsync'd). A key the journal already holds is a no-op: a
// record is never duplicated, so replay can never double-count. On a
// write or fsync failure the file is truncated back to its last committed
// length so a later append cannot hide behind a garbage tail.
func (j *Journal) Append(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: encoding journal value: %w", err)
	}
	payload, err := json.Marshal(journalPayload{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("sweep: encoding journal record: %w", err)
	}
	line := appendRecordLine(nil, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.vals[key]; ok {
		return nil
	}
	if _, err := j.f.WriteAt(line, j.size); err != nil {
		j.failures++
		j.f.Truncate(j.size) // best effort: keep the tail clean for the next append
		return fmt.Errorf("sweep: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.failures++
		j.f.Truncate(j.size)
		return fmt.Errorf("sweep: journal fsync: %w", err)
	}
	j.size += int64(len(line))
	j.vals[key] = raw
	j.appended++
	return nil
}

// Close releases the journal file. Records are durable at Append time, so
// Close adds nothing beyond the file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// InspectJournal parses the journal at path without repairing it: the
// number of valid records and the length of the unusable tail. This is
// the read-only view the crash drill uses to predict exactly which jobs a
// resumed run may skip.
func InspectJournal(path string) (records, tornBytes int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	recs, good := parseJournal(data)
	return len(recs), len(data) - good, nil
}
