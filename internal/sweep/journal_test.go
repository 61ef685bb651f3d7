package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// journalFixture writes a journal with n payload records and returns its
// path, the raw file bytes, and the byte offset where each record starts
// (offsets[n] is the file length).
func journalFixture(t *testing.T, n int) (path string, data []byte, offsets []int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(fmt.Sprintf("key-%d", i), payload{Cycles: uint64(i), Eff: float64(i) / 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets = []int{len(journalHeader())}
	for off := offsets[0]; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			t.Fatalf("fixture has a torn record at %d", off)
		}
		off += nl + 1
		offsets = append(offsets, off)
	}
	return path, data, offsets
}

// TestJournalRoundTrip checks the append/replay cycle and the stats.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Cycles: 42, Eff: 0.5, Tags: []string{"x"}}
	if j.Lookup("k", new(payload)) {
		t.Fatal("unexpected hit on a fresh journal")
	}
	if err := j.Append("k", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !j.Lookup("k", &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("same-session lookup: got %+v ok=%v", got, j.Lookup("k", &got))
	}
	if st := j.Stats(); st.Appended != 1 || st.Replayed != 0 || st.AppendFails != 0 {
		t.Fatalf("stats = %+v", st)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got = payload{}
	if !j2.Lookup("k", &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed lookup: got %+v", got)
	}
	if st := j2.Stats(); st.Replayed != 1 || st.TornBytes != 0 {
		t.Fatalf("replay stats = %+v", st)
	}
}

// TestJournalTornTail proves the core recovery property at every possible
// crash point: truncating the file at ANY byte offset degrades to "resume
// from the last record wholly before the cut" — never a wrong, partial or
// duplicated record.
func TestJournalTornTail(t *testing.T) {
	path, data, offsets := journalFixture(t, 3)
	for cut := 0; cut <= len(data); cut++ {
		// How many records end at or before this cut?
		complete := 0
		for i := 1; i < len(offsets); i++ {
			if offsets[i] <= cut {
				complete = i
			}
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		st := j.Stats()
		if st.Replayed != complete {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, st.Replayed, complete)
		}
		for i := 0; i < complete; i++ {
			var got payload
			if !j.Lookup(fmt.Sprintf("key-%d", i), &got) || got.Cycles != uint64(i) {
				t.Fatalf("cut=%d: record %d missing or wrong: %+v", cut, i, got)
			}
		}
		if j.Lookup(fmt.Sprintf("key-%d", complete), new(payload)) {
			t.Fatalf("cut=%d: torn record %d resurfaced", cut, complete)
		}
		// The repair is a real truncation: appending must work and a
		// fresh replay must agree.
		if err := j.Append("repaired", payload{Cycles: 99}); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		j.Close()
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if st := j2.Stats(); st.Replayed != complete+1 || st.TornBytes != 0 {
			t.Fatalf("cut=%d: post-repair stats = %+v", cut, st)
		}
		j2.Close()
	}
}

// TestJournalCorruption flips a byte inside each record in turn: replay
// must stop at the last record before the corruption — trusting nothing
// after it — and never serve a record whose checksum fails.
func TestJournalCorruption(t *testing.T) {
	path, data, offsets := journalFixture(t, 3)
	for rec := 0; rec < 3; rec++ {
		corrupted := append([]byte(nil), data...)
		corrupted[offsets[rec]+3] ^= 0x40 // inside record rec's CRC field
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("rec=%d: %v", rec, err)
		}
		st := j.Stats()
		if st.Replayed != rec {
			t.Fatalf("rec=%d: replayed %d, want %d (stop at the corruption)", rec, st.Replayed, rec)
		}
		if st.TornBytes != len(data)-offsets[rec] {
			t.Fatalf("rec=%d: torn %d bytes, want %d", rec, st.TornBytes, len(data)-offsets[rec])
		}
		j.Close()
	}
}

// TestJournalHeaderMismatch: a journal from another sweep.Version (or with
// a mangled header) is discarded whole — stale results are never replayed.
func TestJournalHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	for name, header := range map[string]string{
		"old version": fmt.Sprintf("hetsim-journal v1 sweep=%d\n", Version+1),
		"garbage":     "not a journal\n",
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		body := header + string(appendRecordLine(nil, []byte(`{"k":"key-0","v":{"Cycles":7}}`)))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := j.Stats(); st.Replayed != 0 || st.TornBytes != len(body) {
			t.Fatalf("%s: stats = %+v, want full discard", name, st)
		}
		if j.Lookup("key-0", new(payload)) {
			t.Fatalf("%s: stale record replayed", name)
		}
		j.Close()
	}
}

// TestJournalDuplicateAppend: re-appending a journaled key is a no-op, so
// replay can never double-count.
func TestJournalDuplicateAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("k", payload{Cycles: 1})
	size1, _ := os.Stat(path)
	j.Append("k", payload{Cycles: 2})
	size2, _ := os.Stat(path)
	if size1.Size() != size2.Size() {
		t.Fatalf("duplicate append grew the journal: %d -> %d", size1.Size(), size2.Size())
	}
	var got payload
	if !j.Lookup("k", &got) || got.Cycles != 1 {
		t.Fatalf("duplicate append overwrote the record: %+v", got)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d", j.Len())
	}
	j.Close()
}

// FuzzJournalParse hammers the recovery parser: arbitrary bytes must
// parse without panicking, the valid prefix must be stable under
// re-parsing, and appending a fresh record to any valid prefix must
// extend it by exactly one record.
func FuzzJournalParse(f *testing.F) {
	data := []byte(journalHeader())
	var offsets []int
	for i := 0; i < 3; i++ {
		offsets = append(offsets, len(data))
		data = appendRecordLine(data, []byte(fmt.Sprintf(`{"k":"key-%d","v":{"Cycles":%d}}`, i, i)))
	}
	f.Add(append([]byte(nil), data...))
	f.Add(append([]byte(nil), data[:offsets[1]]...))
	f.Add(append([]byte(nil), data[:offsets[2]-3]...))
	f.Add([]byte("hetsim-journal v1 sweep=9999\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, good := parseJournal(b)
		if good < 0 || good > len(b) {
			t.Fatalf("good = %d out of [0, %d]", good, len(b))
		}
		if good == 0 && len(recs) != 0 {
			t.Fatalf("records without a valid header")
		}
		// Stability: the accepted prefix re-parses to the same records.
		recs2, good2 := parseJournal(b[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("re-parse of the valid prefix diverged: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), good2, good)
		}
		for i := range recs {
			if recs[i].Key != recs2[i].Key || !bytes.Equal(recs[i].Value, recs2[i].Value) {
				t.Fatalf("record %d diverged on re-parse", i)
			}
		}
		if good == 0 {
			return
		}
		// Extension: one appended record parses as exactly one more.
		ext := appendRecordLine(append([]byte(nil), b[:good]...), []byte(`{"k":"fuzz-ext","v":1}`))
		recs3, good3 := parseJournal(ext)
		if good3 != len(ext) || len(recs3) != len(recs)+1 {
			t.Fatalf("extension: %d records / %d bytes, want %d / %d",
				len(recs3), good3, len(recs)+1, len(ext))
		}
	})
}
