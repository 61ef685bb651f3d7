package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hetsim/internal/paper"
)

// TestRetryAfterWait pins the bugfixed Retry-After parsing: both RFC
// 9110 forms (delta-seconds and HTTP-date) are honored, unparsable or
// sub-second values floor at one second instead of busy-looping the
// retry, and every wait clamps to the client's MaxWait.
func TestRetryAfterWait(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	const max = 5 * time.Second
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"delta seconds", "3", 3 * time.Second},
		{"delta with space", " 2 ", 2 * time.Second},
		{"delta clamps to MaxWait", "600", max},
		{"delta zero floors", "0", time.Second},
		{"delta negative floors", "-7", time.Second},
		{"http date", now.Add(3 * time.Second).UTC().Format(http.TimeFormat), 3 * time.Second},
		{"http date clamps to MaxWait", now.Add(time.Hour).UTC().Format(http.TimeFormat), max},
		{"http date in the past floors", now.Add(-time.Hour).UTC().Format(http.TimeFormat), time.Second},
		{"garbage floors", "soon", time.Second},
		{"empty floors", "", time.Second},
		{"fractional seconds floors", "1.5", time.Second},
	}
	for _, tc := range cases {
		resp := &http.Response{Header: http.Header{}}
		if tc.header != "" {
			resp.Header.Set("Retry-After", tc.header)
		}
		if got := retryAfterWait(resp, max, now); got != tc.want {
			t.Errorf("%s: retryAfterWait(%q) = %v, want %v", tc.name, tc.header, got, tc.want)
		}
	}
	// Without a cap, a far-future date is honored as-is.
	resp := &http.Response{Header: http.Header{}}
	resp.Header.Set("Retry-After", now.Add(30*time.Second).UTC().Format(http.TimeFormat))
	if got := retryAfterWait(resp, 0, now); got != 30*time.Second {
		t.Errorf("uncapped date = %v, want 30s", got)
	}
}

// TestClientTerminalErrorNamesPoint: a point that fails terminally fails
// the campaign, and the error names the point by its index in the
// caller's spec list and by its spec, since job records carry no key.
func TestClientTerminalErrorNamesPoint(t *testing.T) {
	build := testBuild(map[string]func() (json.RawMessage, error){
		"stuck": func() (json.RawMessage, error) {
			time.Sleep(200 * time.Millisecond)
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 1, JobTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []paper.JobSpec{
		{Kernel: "fine", Seed: 1, Config: "plain"},
		{Kernel: "fine2", Seed: 1, Study: paper.StudyExt, Variant: "-SIMD"},
		{Kernel: "stuck", Seed: 1, Study: paper.StudyBanks, Banks: 8},
	}
	c := &Client{BaseURL: ts.URL, MaxWait: 50 * time.Millisecond}
	_, err := c.RunBatch(context.Background(), specs)
	want := `serve: batch point 2 ("stuck" study=banks banks=8) failed terminally: `
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("terminal failure: %v, want an error starting %q", err, want)
	}
	if got := pointName(specs[0]); got != `"fine" config=plain` {
		t.Fatalf("pointName(%+v) = %q", specs[0], got)
	}
	if got := pointName(specs[1]); got != `"fine2" study=ext variant=-SIMD` {
		t.Fatalf("pointName(%+v) = %q", specs[1], got)
	}
}

// FuzzDecodeRecord requires the client's record decoder to agree with
// json.Unmarshal on every line: the same record where both accept, and
// an error where json.Unmarshal rejects.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []paper.BatchRecord{
		{Type: paper.BatchTypeJob, Job: &paper.BatchJob{Index: 7, Result: json.RawMessage(`{"Cycles":96459,"Activity":{"CoreRun":3.5}}`)}},
		{Type: paper.BatchTypeJob, Job: &paper.BatchJob{Index: 4095, Cached: true, Shared: true, Result: json.RawMessage(`716355`)}},
		{Type: paper.BatchTypeJob, Job: &paper.BatchJob{Index: 0, Cached: true, Result: json.RawMessage(`"\u003cé"`)}},
		{Type: paper.BatchTypeJob, Job: &paper.BatchJob{Index: 2, Error: "boom", Retryable: true}},
		{Type: paper.BatchTypeCursor, Pending: []string{"measure|kernel=hog|seed=1"}},
		{Type: paper.BatchTypeSummary, Summary: &paper.BatchSummary{Jobs: 60, Completed: 60, Cached: 60, State: "serving"}},
	} {
		line, err := rec.AppendJSON(nil)
		if err != nil {
			f.Fatal(err)
		}
		line = line[:len(line)-1]
		if ok := decodeJobLine(line) != nil; ok != (rec.Job != nil && rec.Job.Error == "") {
			f.Fatalf("%s: decoded without reflection %v, want that for every successful job line", line, ok)
		}
		f.Add(line)
	}
	for _, line := range []string{
		`{"type":"job","job":{"index":007,"result":1}}`,
		`{"type":"job","job":{"index":123456,"result":1}}`,
		`{"type":"job","job":{"index":-1,"result":1}}`,
		`{"type":"job","job":{"index":1,"result": 1 }}`,
		`{"type":"job","job":{"index":1,"result":{"a":1},"error":"x"}}`,
		`{"type":"job","job":{"index":1,"result":{"a":1}}}}`,
		`{"type":"job","job":{"index":1,"shared":true,"cached":true,"result":[1,2]}}`,
		`{"type":"job","job":{"index":1,"result":}}`,
		`{"type":"job","job":{"index":1,"result":"\xff"}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want paper.BatchRecord
		gerr := decodeRecord(line, &got)
		werr := json.Unmarshal(line, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: decodeRecord error %v, json.Unmarshal error %v", line, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeRecord %+v (job %+v), json.Unmarshal %+v (job %+v)", line, got, got.Job, want, want.Job)
		}
	})
}
