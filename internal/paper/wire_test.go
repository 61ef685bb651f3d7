package paper

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

func TestSpecConfigsMatchMatrix(t *testing.T) {
	cs := SpecConfigs()
	if len(cs) != len(measureRuns) {
		t.Fatalf("SpecConfigs has %d entries, matrix has %d", len(cs), len(measureRuns))
	}
	for i, rc := range measureRuns {
		if cs[i] != string(rc.key) {
			t.Fatalf("SpecConfigs[%d] = %q, matrix has %q", i, cs[i], rc.key)
		}
	}
}

// TestBuildSpecJobMatchesLocal pins the property the service rests on:
// for every point of every study in the small campaign — plain and with
// the breakdown — the job a wire spec reconstructs has exactly the content
// key of the local plan's job, and for one cheap point per study its
// result is the same bytes.
func TestBuildSpecJobMatchesLocal(t *testing.T) {
	var pts []Point
	stop := errors.New("planned")
	capture := func(plan []Point) ([]json.RawMessage, error) {
		pts = append(pts, plan...)
		return nil, stop
	}
	for _, breakdown := range []bool{false, true} {
		if err := RenderCampaign(io.Discard, capture, kernels.SmallSuite(), CampaignOptions{Breakdown: breakdown}); err != stop {
			t.Fatalf("RenderCampaign = %v, want the capturing runner's error", err)
		}
	}
	if len(pts) != 2*135 {
		t.Fatalf("small campaign plans %d points, want 2×135", len(pts))
	}
	ran := map[string]bool{}
	for _, pt := range pts {
		local, err := pt.job(nil)
		if err != nil {
			t.Fatal(err)
		}
		spec := pt.Spec
		spec.Small = true
		remote, err := BuildSpecJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if remote.Key != local.Key {
			t.Fatalf("%+v: spec key %q != local key %q", spec, remote.Key, local.Key)
		}
		// Result bytes: the first one-core point of each study (the m3
		// point for the matrix) both ways.
		cheap := spec.Config == "m3" || spec.Study != "" && spec.Banks <= 1 && spec.Threads <= 1
		if !cheap || ran[spec.Study] {
			continue
		}
		ran[spec.Study] = true
		want, err := local.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Run()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%+v: spec result bytes differ from local:\n got %s\nwant %s", spec, got, want)
		}
	}
	if len(ran) != 4 {
		t.Fatalf("compared result bytes for studies %v, want all four", ran)
	}
}

func TestBuildSpecJobUnknownKernel(t *testing.T) {
	if _, err := BuildSpecJob(JobSpec{Kernel: "no-such-kernel", Seed: 1, Config: "m3"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	// A paper-suite-only kernel must not resolve in the small registry if
	// absent there, and vice versa names resolve per the Small flag.
	if _, err := BuildSpecJob(JobSpec{Kernel: kernels.SmallSuite()[0].Name, Small: true, Seed: 1, Config: "m3"}); err != nil {
		t.Fatalf("small-suite kernel rejected: %v", err)
	}
}

func TestParseBatchRequest(t *testing.T) {
	good := `{"tenant":"lab","timeout_ms":500,"specs":[{"kernel":"matmul","seed":1,"config":"pulp4"},{"kernel":"fir","small":true,"seed":1,"config":"plain"}]}`
	req, err := ParseBatchRequest([]byte(good))
	if err != nil {
		t.Fatalf("good explicit batch rejected: %v", err)
	}
	if req.Tenant != "lab" || req.TimeoutMS != 500 || len(req.Specs) != 2 || req.Specs[1].Kernel != "fir" {
		t.Fatalf("good batch decoded as %+v", req)
	}

	studies := `{"specs":[{"kernel":"matmul","seed":1,"study":"ext"},{"kernel":"matmul","seed":1,"study":"ext","variant":"-MinMax"},` +
		`{"kernel":"matmul","seed":1,"study":"banks","banks":16},{"kernel":"cnn","seed":1,"study":"scaling","threads":8}]}`
	if _, err := ParseBatchRequest([]byte(studies)); err != nil {
		t.Fatalf("good study specs rejected: %v", err)
	}

	bad := []struct{ name, body string }{
		{"empty", ``},
		{"not json", `hello`},
		{"unknown field", `{"bogus":1,"specs":[{"kernel":"matmul","seed":1,"config":"m3"}]}`},
		{"trailing data", good + `{"again":true}`},
		{"no specs", `{"tenant":"lab"}`},
		{"empty specs", `{"specs":[]}`},
		{"server-side suite", `{"suite":"table1"}`},
		{"batch-level knobs", `{"small":true,"specs":[{"kernel":"matmul","seed":1,"config":"m3"}]}`},
		{"bad spec inside", `{"specs":[{"kernel":"matmul","seed":1,"config":"m3"},{"kernel":"matmul","seed":1,"config":"turbo"}]}`},
		{"missing kernel", `{"specs":[{"seed":1,"config":"m3"}]}`},
		{"long kernel", `{"specs":[{"kernel":"` + strings.Repeat("x", 129) + `","seed":1,"config":"m3"}]}`},
		{"oversized", `{"tenant":"` + strings.Repeat(" ", maxBatchRequestBytes) + `"}`},
		{"unknown study", `{"specs":[{"kernel":"matmul","seed":1,"study":"voltage"}]}`},
		{"unknown variant", `{"specs":[{"kernel":"matmul","seed":1,"study":"ext","variant":"-FPU"}]}`},
		{"banks 3", `{"specs":[{"kernel":"matmul","seed":1,"study":"banks","banks":3}]}`},
		{"threads 0", `{"specs":[{"kernel":"matmul","seed":1,"study":"scaling","threads":0}]}`},
		{"threads 16", `{"specs":[{"kernel":"matmul","seed":1,"study":"scaling","threads":16}]}`},
		{"study field on a measure point", `{"specs":[{"kernel":"matmul","seed":1,"config":"m3","banks":4}]}`},
		{"config on a study point", `{"specs":[{"kernel":"matmul","seed":1,"config":"m3","study":"banks","banks":4}]}`},
		{"second study parameter", `{"specs":[{"kernel":"matmul","seed":1,"study":"scaling","threads":4,"banks":4}]}`},
	}
	for _, tc := range bad {
		if _, err := ParseBatchRequest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A valid spec list does not save a batch whose timeout or tenant is
	// bad, and the error says which.
	specs := `"specs":[{"kernel":"matmul","seed":1,"config":"m3"}]`
	for _, tc := range []struct{ name, body, want string }{
		{"negative timeout", `{"timeout_ms":-5,` + specs + `}`, "negative timeout_ms"},
		{"long tenant", `{"tenant":"` + strings.Repeat("t", 65) + `",` + specs + `}`, "longer than 64 bytes"},
		{"control tenant", `{"tenant":"a\tb",` + specs + `}`, "control characters"},
	} {
		if _, err := ParseBatchRequest([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// A bad spec names its index for diagnosability.
	_, err = ParseBatchRequest([]byte(`{"specs":[{"kernel":"matmul","seed":1,"config":"m3"},{"kernel":"","seed":1,"config":"m3"}]}`))
	if err == nil || !strings.Contains(err.Error(), "batch spec 1") {
		t.Fatalf("bad spec error does not name its index: %v", err)
	}
	// The spec-count bound holds.
	var b strings.Builder
	b.WriteString(`{"specs":[`)
	for i := 0; i <= MaxBatchSpecs; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"kernel":"m","seed":1,"config":"m3"}`)
	}
	b.WriteString(`]}`)
	if _, err := ParseBatchRequest([]byte(b.String())); err == nil {
		t.Error("over-bound spec count accepted")
	}
}

// TestSuiteSpecsMatchLocal pins what SuiteSpecs promises: a named
// expansion yields exactly the (kernel × configuration) matrix the local
// MeasureWith producers schedule — same order, same content keys — so a
// batch of its specs hits the same cache entries and dedup flights as a
// local sweep.
func TestSuiteSpecsMatchLocal(t *testing.T) {
	specs, err := SuiteSpecs("table1", true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := measurePoints(kernels.SmallSuite(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(pts) {
		t.Fatalf("%d specs for a %d-point matrix", len(specs), len(pts))
	}
	for i, pt := range pts {
		local, err := pt.job(nil)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := BuildSpecJob(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if remote.Key != local.Key {
			t.Fatalf("spec %d (%+v): key %q != local %q", i, pt.Spec, remote.Key, local.Key)
		}
	}
	// The measurement aliases all expand identically.
	for _, alias := range []string{"measure", "fig3", "fig4", "fig5a"} {
		got, err := SuiteSpecs(alias, true, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(specs) {
			t.Fatalf("%s expanded to %d specs, table1 to %d", alias, len(got), len(specs))
		}
		for j := range got {
			if got[j] != specs[j] {
				t.Fatalf("%s[%d] = %+v, table1 has %+v", alias, j, got[j], specs[j])
			}
		}
	}
	// breakdown forces attribution on, exactly like the local producer.
	bspecs, err := SuiteSpecs("breakdown", true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range bspecs {
		if !s.Observe {
			t.Fatalf("breakdown spec %d not observed: %+v", j, s)
		}
	}
	if _, err := SuiteSpecs("table9", true, false, 0); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

// TestMeasureRemoteBatchFoldsLikeLocal routes the whole campaign through
// an in-process batch runner — one call carrying every spec, the shape
// of /v1/batch without HTTP — and checks the fold is identical to the
// local path.
func TestMeasureRemoteBatchFoldsLikeLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the small suite twice")
	}
	suite := kernels.SmallSuite()[:2]
	local, err := MeasureWith(sweep.New(sweep.Config{}), suite)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	run := func(ctx context.Context, specs []JobSpec) ([]json.RawMessage, error) {
		calls++
		out := make([]json.RawMessage, len(specs))
		for i, spec := range specs {
			job, err := BuildSpecJob(spec)
			if err != nil {
				return nil, err
			}
			if out[i], err = job.Run(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	remote, err := MeasureRemoteBatch(context.Background(), run, suite, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("campaign cost %d batch calls, want 1", calls)
	}
	lb, rb := renderAll(t, local), renderAll(t, remote)
	if string(lb) != string(rb) {
		t.Fatalf("batch remote tables differ from local:\n%s\nvs\n%s", rb, lb)
	}
	// A runner returning the wrong shape is a protocol error, not a panic.
	short := func(ctx context.Context, specs []JobSpec) ([]json.RawMessage, error) {
		return make([]json.RawMessage, len(specs)-1), nil
	}
	if _, err := MeasureRemoteBatch(context.Background(), short, suite, true, false); err == nil {
		t.Fatal("short batch result accepted")
	}
}

// FuzzParseBatchRequest hammers the server's first line of defense: the
// decoder must reject or accept without panicking, and anything it
// accepts must survive a re-encode/re-parse round trip.
func FuzzParseBatchRequest(f *testing.F) {
	f.Add([]byte(`{"tenant":"lab","timeout_ms":500,"specs":[{"kernel":"matmul","seed":1,"config":"pulp4"}]}`))
	f.Add([]byte(`{"suite":"table1","small":true,"observe":true,"seed":7}`))
	f.Add([]byte(`{"suite":"breakdown"}`))
	f.Add([]byte(`{"specs":[{"kernel":"matmul","seed":1,"study":"ext","variant":"-SIMD"}]}`))
	f.Add([]byte(`{"specs":[{"kernel":"matmul","seed":1,"study":"banks","banks":8}]}`))
	f.Add([]byte(`{"specs":[{"kernel":"cnn","small":true,"seed":1,"study":"scaling","threads":6}]}`))
	f.Add([]byte(`{"specs":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"suite":"table1","specs":[{"kernel":"m","seed":1,"config":"m3"}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := ParseBatchRequest(b)
		if err != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		again, err := ParseBatchRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v\n%s", err, enc)
		}
		if again.Tenant != req.Tenant || again.TimeoutMS != req.TimeoutMS || len(again.Specs) != len(req.Specs) {
			t.Fatalf("round trip changed the request: %+v vs %+v", again, req)
		}
	})
}
