package sweep

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// getRaw reads key as raw bytes, failing the test on a miss.
func getRaw(t *testing.T, c *Cache, key string) json.RawMessage {
	t.Helper()
	var raw json.RawMessage
	if !c.Get(key, &raw) {
		t.Fatalf("Get(%q) missed", key)
	}
	return raw
}

// TestResidentHitSurvivesDelete: a value a Cache has validated once is
// served from memory afterwards, so deleting its file changes nothing for
// that Cache, while a fresh Open (a new process) misses it. Both fills
// count: a disk hit and a successful Put.
func TestResidentHitSurvivesDelete(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Cycles: 42, Eff: 0.5, Tags: []string{"x"}}
	if err := writer.Put("k", want); err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !reader.Get("k", &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk Get = %+v", got)
	}
	if st := reader.Stats(); st.Hits != 1 || st.Resident != 0 {
		t.Fatalf("after the disk hit: %+v, want 1 hit, 0 resident", st)
	}
	if err := os.Remove(reader.path("k")); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"disk-filled": reader, "put-filled": writer} {
		before := c.Stats()
		got = payload{}
		if !c.Get("k", &got) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Get after delete = %+v", name, got)
		}
		after := c.Stats()
		if after.Hits != before.Hits+1 || after.Resident != before.Resident+1 || after.Misses != before.Misses {
			t.Fatalf("%s: a resident hit counted as %+v -> %+v", name, before, after)
		}
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Get("k", &got) {
		t.Fatal("a fresh Open served a deleted entry")
	}
}

// TestResidentByteBound: once the resident bytes reach residentLimit,
// later entries are not admitted and nothing is evicted. The entries left
// out are still served, correctly, from disk on every read.
func TestResidentByteBound(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n, fit = 8, 3
	val := func(i int) payload { return payload{Cycles: uint64(i), Tags: []string{strings.Repeat("v", 100)}} }
	size := func(i int) int {
		b, _ := json.Marshal(val(i))
		return len(fmt.Sprintf("k-%d", i)) + len(b)
	}
	// Leave room for exactly the first fit entries.
	c.resBytes = residentLimit
	for i := 0; i < fit; i++ {
		c.resBytes -= size(i)
	}
	for i := 0; i < n; i++ {
		if err := c.Put(fmt.Sprintf("k-%d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.resident) != fit || c.resBytes != residentLimit {
		t.Fatalf("%d entries resident in %d bytes, want %d in %d", len(c.resident), c.resBytes, fit, residentLimit)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			before := c.Stats()
			var got payload
			if !c.Get(fmt.Sprintf("k-%d", i), &got) || !reflect.DeepEqual(got, val(i)) {
				t.Fatalf("round %d: k-%d = %+v", round, i, got)
			}
			after := c.Stats()
			if wantRes := i < fit; (after.Resident > before.Resident) != wantRes {
				t.Fatalf("round %d: k-%d resident hit = %v, want %v", round, i, !wantRes, wantRes)
			}
		}
	}
	if len(c.resident) != fit {
		t.Fatalf("disk hits past the bound were admitted: %d resident", len(c.resident))
	}
	// The entries past the bound really are read from disk.
	if err := os.Remove(c.path(fmt.Sprintf("k-%d", n-1))); err != nil {
		t.Fatal(err)
	}
	var got payload
	if c.Get(fmt.Sprintf("k-%d", n-1), &got) {
		t.Fatal("an entry past the bound was served after its file was deleted")
	}
}

// TestCorruptEntryNeverResident: an entry Get rejects — torn, of another
// version or key, or whose value does not decode into the destination —
// is never kept, so the next Get of the key reads the disk again and
// serves a repaired entry.
func TestCorruptEntryNeverResident(t *testing.T) {
	cases := map[string][]byte{
		"torn":          []byte(`{"version":2,"key":"k","val`),
		"wrong version": mustJSON(t, entry{Version: Version + 1, Key: "k", Value: []byte(`{"Cycles":7}`)}),
		"wrong key":     mustJSON(t, entry{Version: Version, Key: "other", Value: []byte(`{"Cycles":7}`)}),
		"bad value":     mustJSON(t, entry{Version: Version, Key: "k", Value: []byte(`"nope"`)}),
	}
	for name, b := range cases {
		dir := t.TempDir()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := c.path("k")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if c.Get("k", &got) {
			t.Fatalf("%s: hit", name)
		}
		if _, ok := c.resident["k"]; ok {
			t.Fatalf("%s: a rejected entry is resident", name)
		}
		good := mustJSON(t, entry{Version: Version, Key: "k", Value: []byte(`{"Cycles":7}`)})
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if !c.Get("k", &got) || got.Cycles != 7 {
			t.Fatalf("%s: the repaired entry was not read from disk: %+v", name, got)
		}
		if st := c.Stats(); st.Corrupt != 1 || st.Hits != 1 || st.Resident != 0 {
			t.Fatalf("%s: stats %+v", name, st)
		}
	}
}

// TestPutValueMatchesDisk: the value a Put keeps resident is byte-equal
// to what a fresh Cache's disk Get returns, for values whose encoding the
// envelope could disturb (escaped HTML, floats, raw JSON with spacing).
func TestPutValueMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]any{
		"payload": payload{Cycles: 1 << 40, Eff: 0.1 + 0.2, Tags: []string{"<a&b>", "ü", " "}},
		"raw":     json.RawMessage(" { \"a\" : [1, 2.50, \"x\"] } "),
		"number":  3.0e-300,
		"string":  "</script>",
	}
	for key, v := range values {
		if err := c.Put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key := range values {
		disk := getRaw(t, fresh, key)
		if res := getRaw(t, c, key); !bytes.Equal(res, disk) {
			t.Errorf("%s: resident %s, disk %s", key, res, disk)
		}
	}
	if st := c.Stats(); st.Resident != uint64(len(values)) {
		t.Fatalf("writer stats %+v, want every read resident", st)
	}
	if st := fresh.Stats(); st.Resident != 0 {
		t.Fatalf("fresh stats %+v, want every read from disk", st)
	}
}

// trial mirrors chaos.Trial, the one typed value the engine caches.
type trial struct {
	Verdict         string
	Injected        int
	OutputOK        bool
	Retransmits     uint64
	RecoveryCycles  float64
	RecoveryEnergyJ float64
	Err             string
}

// TestTypedDecodeFromResident: a typed destination decodes from the
// resident value exactly as from disk, whether a Put or a raw read filled
// it, and a resident value that does not fit the destination is a
// counted corrupt miss, as it is on disk.
func TestTypedDecodeFromResident(t *testing.T) {
	dir := t.TempDir()
	want := trial{Verdict: "recovered", Injected: 3, OutputOK: true, Retransmits: 12,
		RecoveryCycles: 1234.5, RecoveryEnergyJ: 1.5e-9, Err: ""}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("put", want); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("raw", want); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	getRaw(t, r, "raw") // fills r from disk through a raw read
	for name, cache := range map[string]*Cache{"put": c, "raw": r} {
		var got trial
		if !cache.Get(name, &got) || got != want {
			t.Fatalf("%s: typed Get = %+v", name, got)
		}
		if st := cache.Stats(); st.Resident != 1 {
			t.Fatalf("%s: stats %+v, want the typed read resident", name, st)
		}
	}
	var wrong []int
	if c.Get("put", &wrong) {
		t.Fatal("a trial decoded into []int")
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Hits != 1 {
		t.Fatalf("mismatched destination: stats %+v", st)
	}
}

// TestConcurrentResidentGetPut races Gets and Puts of one key across
// goroutines (make race-sweep runs it under -race): every hit is one of
// the values written, whole.
func TestConcurrentResidentGetPut(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) payload { return payload{Cycles: uint64(i), Tags: []string{fmt.Sprint(i)}} }
	const writers, readers, rounds = 2, 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Put("k", val(i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if r%2 == 0 {
					var got payload
					if c.Get("k", &got) && !reflect.DeepEqual(got, val(int(got.Cycles))) {
						t.Errorf("torn value %+v", got)
					}
					continue
				}
				var raw json.RawMessage
				if c.Get("k", &raw) {
					var got payload
					if json.Unmarshal(raw, &got) != nil || !reflect.DeepEqual(got, val(int(got.Cycles))) {
						t.Errorf("torn raw value %s", raw)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if st := c.Stats(); st.Corrupt != 0 || st.WriteFails != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestColdPutsSyncRootOnce: a cold run of Puts into a fresh directory
// fsyncs the cache root exactly once, on the first Put, which creates
// all 256 fanout directories. Before, every Put that created a fanout
// directory fsynced the root.
func TestColdPutsSyncRootOnce(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tops, _ := os.ReadDir(dir); len(tops) != 0 {
		t.Fatalf("Open created %d entries; preparing the fanout is the first Put's work", len(tops))
	}
	const n = 64
	fanouts := map[string]bool{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k-%d", i)
		fanouts[filepath.Base(filepath.Dir(c.path(key)))] = true
		if err := c.Put(key, payload{Cycles: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.rootSyncs.Load(); got != 1 {
		t.Fatalf("%d root fsyncs over %d Puts into %d fanout directories, want 1", got, n, len(fanouts))
	}
	if len(fanouts) < 2 {
		t.Fatalf("the keys meet only %d fanout directory", len(fanouts))
	}
	for i := 0; i < 256; i++ {
		if fi, err := os.Stat(filepath.Join(dir, hex.EncodeToString([]byte{byte(i)}))); err != nil || !fi.IsDir() {
			t.Fatalf("fanout %02x missing: %v", i, err)
		}
	}
	if st := c.Stats(); st.Writes != n || st.WriteFails != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailedFanoutIsRetried: a Put whose fanout preparation fails is a
// WriteFail that leaves no entry, and the next Put prepares again and
// commits: the failure is not remembered.
func TestFailedFanoutIsRetried(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A file where a fanout directory must go.
	squatter := filepath.Join(dir, "7f")
	if err := os.WriteFile(squatter, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := payload{Cycles: 5}
	if err := c.Put("k", want); err == nil {
		t.Fatal("Put succeeded without its fanout directories")
	}
	var got payload
	if c.Get("k", &got) {
		t.Fatal("a failed Put became a hit")
	}
	if st := c.Stats(); st.WriteFails != 1 || st.Writes != 0 || st.Corrupt != 0 {
		t.Fatalf("stats after the failed preparation: %+v", st)
	}
	if c.rootSyncs.Load() != 0 {
		t.Fatal("the root was fsynced before its fanout directories existed")
	}
	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", want); err != nil {
		t.Fatalf("the next Put did not recover: %v", err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Get("k", &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered entry = %+v", got)
	}
	if st := c.Stats(); st.WriteFails != 1 || st.Writes != 1 || c.rootSyncs.Load() != 1 {
		t.Fatalf("stats after recovery: %+v, %d root fsyncs", st, c.rootSyncs.Load())
	}
}

// TestRemovedFanoutIsPreparedAgain: a fanout directory removed behind a
// live Cache's back (a cache cleared by hand) fails the one Put that
// meets it, and the next Put prepares the fanout again and commits.
func TestRemovedFanoutIsPreparedAgain(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", payload{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(c.path("b"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", payload{Cycles: 2}); err == nil {
		t.Fatal("Put into a removed fanout directory succeeded")
	}
	if err := c.Put("b", payload{Cycles: 2}); err != nil {
		t.Fatalf("the next Put did not prepare the fanout again: %v", err)
	}
	if st := c.Stats(); st.Writes != 2 || st.WriteFails != 1 || c.rootSyncs.Load() != 2 {
		t.Fatalf("stats %+v, %d root fsyncs", st, c.rootSyncs.Load())
	}
}
