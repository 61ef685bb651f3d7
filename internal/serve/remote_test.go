package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// TestRemoteEquivalence is the acceptance drill for `hetexp -remote`:
// the whole small campaign — every experiment RenderCampaign prints —
// run through a real hetsimd stack (HTTP client, wire codec,
// single-flight server, run cache) renders byte-identically to local
// execution, against a cold server cache and again against a warm one,
// at one streamed /v1/batch request per campaign.
func TestRemoteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced campaign three times")
	}
	suite := kernels.SmallSuite()
	render := func(run paper.Runner) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := paper.RenderCampaign(&buf, run, suite, paper.CampaignOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	eng := sweep.New(sweep.Config{})
	want := render(paper.LocalRunner(eng))
	jobs := uint64(eng.Stats().Jobs)

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
	remote := paper.RemoteRunner(ctx, client.RunBatch, true)

	if got := render(remote); !bytes.Equal(got, want) {
		t.Fatalf("cold remote campaign differs from local:\n%s\nvs\n%s", got, want)
	}
	if st := srv.Stats(); st.Executed != jobs {
		t.Fatalf("cold campaign executed %d of %d jobs: %+v", st.Executed, jobs, st)
	}
	if got := render(remote); !bytes.Equal(got, want) {
		t.Fatalf("warm remote campaign differs from local:\n%s\nvs\n%s", got, want)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.BatchRequests != 2 {
		t.Fatalf("two campaigns cost %d HTTP requests (%d batches), want 2: %+v",
			st.Requests, st.BatchRequests, st)
	}
	if client.Reconnects() != 0 {
		t.Fatalf("clean streams needed %d reconnects", client.Reconnects())
	}
	if st.Executed != jobs || st.CacheHits != jobs ||
		st.BatchJobs != 2*jobs || st.BatchCompleted != 2*jobs {
		t.Fatalf("batch accounting: %+v (want %d executed, %d cached)", st, jobs, jobs)
	}
}

// TestBatchSharesLocalPlan serves the whole small campaign's plan as one
// batch on a fresh server and checks that the batch shares what a local
// plan shares: every result is byte-identical to LocalRunner's, exactly
// the 31 simulations that repeat another point's are taken from it
// rather than run again, and each of the ten kernels' inputs is
// generated once.
func TestBatchSharesLocalPlan(t *testing.T) {
	var pts []paper.Point
	stop := errors.New("planned")
	capture := func(plan []paper.Point) ([]json.RawMessage, error) {
		pts = plan
		return nil, stop
	}
	if err := paper.RenderCampaign(io.Discard, capture, kernels.SmallSuite(), paper.CampaignOptions{}); err != stop {
		t.Fatalf("RenderCampaign = %v, want the capturing runner's error", err)
	}
	want, err := paper.LocalRunner(sweep.New(sweep.Config{}))(pts)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2, Queue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL, Tenant: "plan"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	_, shared0 := paper.SimStats()
	in0, _ := kernels.ArtifactStats()
	got, err := paper.RemoteRunner(ctx, client.RunBatch, true)(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, shared1 := paper.SimStats()
	in1, _ := kernels.ArtifactStats()
	for i := range pts {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%+v: served %s, local %s", pts[i].Spec, got[i], want[i])
		}
	}
	if n := shared1 - shared0; n != 31 {
		t.Errorf("served plan shared %d simulations, want 31", n)
	}
	if n := in1 - in0; n != 10 {
		t.Errorf("served plan generated %d inputs, want 10: one per kernel and seed", n)
	}
	if st := srv.Stats(); st.Executed != uint64(len(pts)) || st.SimsShared != shared1 {
		t.Errorf("server stats %+v: want %d executed and sims_shared %d", st, len(pts), shared1)
	}
}
