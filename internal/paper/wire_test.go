package paper

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
		local, err := pt.job(nil, nil)
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
		local, err := pt.job(nil, nil)
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

// TestBatchRequestJob: a parsed request builds each spec's job from the
// resolution it kept, with BuildSpecJob's key and errors, and a request
// built by hand resolves on the spot.
func TestBatchRequestJob(t *testing.T) {
	body := `{"specs":[{"kernel":"matmul","seed":1,"config":"pulp4","observe":true},{"kernel":"matmul","seed":2,"study":"ext","variant":"-SIMD"},` +
		`{"kernel":"cnn","small":true,"seed":1,"study":"banks","banks":2},{"kernel":"hog","seed":1,"study":"scaling","threads":6},` +
		`{"kernel":"no-such-kernel","seed":1,"config":"m3"}]}`
	req, err := ParseBatchRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	byHand := &BatchRequest{Specs: req.Specs}
	for i, spec := range req.Specs {
		want, werr := BuildSpecJob(spec)
		for _, r := range []*BatchRequest{req, byHand} {
			got, err := r.Job(i)
			if fmt.Sprint(err) != fmt.Sprint(werr) || got.Key != want.Key {
				t.Fatalf("spec %d (%+v): Job = %q, %v; BuildSpecJob = %q, %v", i, spec, got.Key, err, want.Key, werr)
			}
		}
	}
}

// TestBatchRecordAppendJSON pins AppendJSON to json.Encoder on each record
// type and on the results and strings the encoder rewrites.
func TestBatchRecordAppendJSON(t *testing.T) {
	pretty := json.RawMessage("{\n  \"Cycles\": 7,\n  \"Activity\": {\n    \"CoreRun\": 3.5\n  }\n}")
	recs := []BatchRecord{
		{Type: BatchTypeHeartbeat},
		{Type: BatchTypeJob, Job: &BatchJob{Index: 0}},
		{Type: BatchTypeJob, Job: &BatchJob{Index: 3, Cached: true, Shared: true, Result: json.RawMessage(`{"Cycles":96459,"BinBytes":6052}`)}},
		{Type: BatchTypeJob, Job: &BatchJob{Index: 4, Result: pretty}},
		{Type: BatchTypeJob, Job: &BatchJob{Index: 5, Result: json.RawMessage(`"<a&b>é é"`)}},
		{Type: BatchTypeJob, Job: &BatchJob{Index: 6, Result: json.RawMessage(` 716355 `)}},
		{Type: BatchTypeJob, Job: &BatchJob{Index: -1, Error: "sweep: job \"x\" <timed out>\n\t\x00\x7f\xff  ", Retryable: true}},
		{Type: BatchTypeCursor, Pending: []string{"measure|kernel=svm (RBF)(D=64)|seed=1", "a<b>&c", "\xc3\x28"}},
		{Type: BatchTypeSummary, Summary: &BatchSummary{Jobs: 135, Completed: 130, Failed: 1, Pending: 4, Cached: 100, Deduped: 20, Executed: 10, State: "draining"}},
		{Type: " <x>", Job: &BatchJob{}, Pending: []string{}, Summary: &BatchSummary{}},
	}
	for _, rec := range recs {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		got, err := rec.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		if string(got) != "prefix"+want.String() {
			t.Fatalf("AppendJSON wrote %q, json.Encoder %q", got[len("prefix"):], want.String())
		}
	}
	// A result the encoder must canonicalize but cannot is an error, and
	// dst comes back as it was.
	bad := BatchRecord{Type: BatchTypeJob, Job: &BatchJob{Result: json.RawMessage("{\"a\": }")}}
	if got, err := bad.AppendJSON([]byte("x")); err == nil || string(got) != "x" {
		t.Fatalf("invalid result: %q, %v", got, err)
	}
}

// fuzzValue builds a JSON-encodable value from a xorshift state, with
// strs as its strings and object keys.
func fuzzValue(rng *uint64, strs []string, depth int) any {
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	r := *rng
	kinds := uint64(7)
	if depth > 3 {
		kinds = 5
	}
	switch r % kinds {
	case 0:
		return nil
	case 1:
		return r&8 != 0
	case 2:
		return float64(int64(r>>4)) / float64(uint64(1)<<(r>>3&63))
	case 3:
		return int64(r >> 3)
	case 4:
		return strs[(r>>5)%uint64(len(strs))]
	case 5:
		arr := make([]any, (r>>4)%4)
		for i := range arr {
			arr[i] = fuzzValue(rng, strs, depth+1)
		}
		return arr
	}
	obj := map[string]any{}
	for i := uint64(0); i < (r>>4)%4; i++ {
		obj[strs[(r>>(8+i))%uint64(len(strs))]] = fuzzValue(rng, strs, depth+1)
	}
	return obj
}

// FuzzBatchRecordEncode requires AppendJSON to write exactly what
// json.Encoder writes for random records of every type: fuzzed strings
// in every string field, results that are json.Marshal output of random
// values, their json.Indent forms, or the fuzzed bytes themselves when
// they are valid JSON. Every line is one line.
func FuzzBatchRecordEncode(f *testing.F) {
	// kind: bits 0–1 the record type, 2–3 the result's form (marshaled,
	// indented, the raw bytes, none), 4 s1 as the type, 5–7 the flags.
	f.Add(uint8(4), 3, "svm (RBF)", "pulp4", []byte(`{"Cycles":1}`), uint64(1))
	f.Add(uint8(8|32|64), 0, "<a&b>", "  ", []byte("{\n  \"a\": [1, 2.50, \"\\u003c\"]\n}"), uint64(7))
	f.Add(uint8(2), 17, "\x00\x1f\t\n\"\\", "\xff\xfe bad utf-8 \xc3\x28", []byte(`"é<"`), uint64(42))
	f.Add(uint8(3), -5, "draining", "measure|kernel=matmul(64x64)|seed=1", []byte(`not json`), uint64(99))
	f.Add(uint8(128|32|4), 1<<40, "é\u2028", "\u2029 \x7f", []byte(` 12 `), uint64(123456789))
	f.Add(uint8(16|8), 2, "<type>\u2028", "e", []byte(`[{"k":null}]`), uint64(5))
	f.Add(uint8(1|12), 0, "", "", []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, index int, s1, s2 string, raw []byte, seed uint64) {
		rng := seed | 1
		v := fuzzValue(&rng, []string{s1, s2, "k"}, 0)
		result, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		switch kind >> 2 & 3 {
		case 1:
			var ind bytes.Buffer
			if err := json.Indent(&ind, result, "", "  "); err != nil {
				t.Fatal(err)
			}
			result = ind.Bytes()
		case 2:
			if json.Valid(raw) {
				result = raw
			}
		case 3:
			result = nil
		}
		rec := BatchRecord{Type: []string{BatchTypeJob, BatchTypeHeartbeat, BatchTypeCursor, BatchTypeSummary}[kind&3]}
		if kind&16 != 0 {
			rec.Type = s1
		}
		switch rec.Type {
		case BatchTypeJob:
			rec.Job = &BatchJob{Index: index, Cached: kind&32 != 0, Shared: kind&64 != 0, Result: result}
			if kind&128 != 0 {
				rec.Job.Error, rec.Job.Retryable = s2, kind&32 != 0
			}
		case BatchTypeCursor:
			rec.Pending = []string{s1, s2, string(raw)}
		case BatchTypeSummary:
			rec.Summary = &BatchSummary{Jobs: index, Completed: index >> 1, Failed: int(kind), Pending: -index,
				Cached: int(seed >> 40), Deduped: int(int8(seed)), Executed: len(s1), State: s2}
		default:
			rec.Job = &BatchJob{Index: index, Result: result, Error: s2}
			rec.Pending = []string{s2}
		}
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(rec)
		got, err := rec.AppendJSON(nil)
		if werr != nil || err != nil {
			if werr == nil || err == nil {
				t.Fatalf("json.Encoder error %v, AppendJSON error %v", werr, err)
			}
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON wrote\n%q\njson.Encoder\n%q", got, want.Bytes())
		}
		if bytes.IndexByte(got, '\n') != len(got)-1 {
			t.Fatalf("record is not one line: %q", got)
		}
	})
}
