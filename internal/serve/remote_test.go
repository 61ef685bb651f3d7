package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// renderTables renders every artifact `hetexp -remote` can produce from
// a measurement set, for byte comparison.
func renderTables(t *testing.T, m *paper.Measurements) []byte {
	t.Helper()
	var buf bytes.Buffer
	paper.RenderTable1(&buf, m.Table1())
	pts, err := m.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	paper.RenderFigure3(&buf, pts)
	paper.RenderFigure4(&buf, m.Figure4())
	paper.RenderFigure5a(&buf, m.Figure5a())
	return buf.Bytes()
}

// TestRemoteEquivalence is the acceptance drill for `hetexp -remote`:
// the paper sweep measured through a real hetsimd stack — HTTP client,
// wire codec, single-flight server, run cache — renders byte-identical
// tables to local execution, against a cold server cache and again
// against a warm one, at one streamed /v1/batch request per campaign.
func TestRemoteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the reduced suite twice")
	}
	suite := kernels.SmallSuite()[:2]
	local, err := paper.MeasureWith(sweep.New(sweep.Config{}), suite)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, local)

	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cache: cache, Workers: 4, Queue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL, Tenant: "equiv"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cold, err := paper.MeasureRemoteBatch(ctx, client.RunBatch, suite, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTables(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("cold remote tables differ from local:\n%s\nvs\n%s", got, want)
	}
	warm, err := paper.MeasureRemoteBatch(ctx, client.RunBatch, suite, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTables(t, warm); !bytes.Equal(got, want) {
		t.Fatalf("warm remote tables differ from local:\n%s\nvs\n%s", got, want)
	}
	st := srv.Stats()
	points := uint64(len(suite) * len(paper.SpecConfigs()))
	if st.Requests != 2 || st.BatchRequests != 2 {
		t.Fatalf("two campaigns cost %d HTTP requests (%d batches), want 2: %+v",
			st.Requests, st.BatchRequests, st)
	}
	if client.Reconnects() != 0 {
		t.Fatalf("clean streams needed %d reconnects", client.Reconnects())
	}
	if st.Executed != points || st.CacheHits != points ||
		st.BatchJobs != 2*points || st.BatchCompleted != 2*points {
		t.Fatalf("batch accounting: %+v (want %d executed, %d cached)", st, points, points)
	}
}
