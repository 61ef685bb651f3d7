package paper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

// This file is the wire codec of the simulation service (internal/serve,
// cmd/hetsimd): a JobSpec names one simulation point of the campaign
// compactly, and a parsed BatchRequest rebuilds on the server the exact
// jobs a local plan runs (same keys, same simulations, shared the same
// way), so a request is self-describing and two clients asking for the
// same point dedupe onto one simulation. RemoteRunner (plan.go) sends a
// local plan as one batch whose results go through the same folds, which
// is what makes `hetexp -remote` byte-identical to local execution.

// SpecConfigs lists the valid JobSpec.Config values — the measurement
// configurations of the paper sweep, in matrix order.
func SpecConfigs() []string {
	cs := make([]string, len(measureRuns))
	for i, rc := range measureRuns {
		cs[i] = string(rc.key)
	}
	return cs
}

// JobSpec names one simulation point: a (kernel, configuration) point of
// the measure matrix, or a point of the study Study selects.
type JobSpec struct {
	// Kernel is the Table I kernel name within the selected suite.
	Kernel string `json:"kernel"`
	// Small selects the reduced-size suite (fast smoke points).
	Small bool `json:"small,omitempty"`
	// Seed feeds the kernel's deterministic input generator.
	Seed uint64 `json:"seed"`
	// Config is one of SpecConfigs: plain, m3, m4, pulp1, pulp2, pulp4.
	// Measure points only.
	Config string `json:"config,omitempty"`
	// Observe attaches cycle attribution to the pulp4 point (the
	// breakdown table); it is ignored — exactly like the local path — on
	// every other configuration. Measure points only.
	Observe bool `json:"observe,omitempty"`
	// Study selects StudyExt, StudyBanks or StudyScaling; "" is a measure
	// point.
	Study string `json:"study,omitempty"`
	// Variant is an ExtVariants name, "" for the full build (StudyExt).
	Variant string `json:"variant,omitempty"`
	// Banks is the TCDM bank count (StudyBanks).
	Banks int `json:"banks,omitempty"`
	// Threads is the team size (StudyScaling).
	Threads int `json:"threads,omitempty"`
}

// validate checks the shape of a spec without touching the kernel
// registry (Job resolves names; this guards the wire format) and
// returns what the spec simulates.
func (s *JobSpec) validate() (simulation, error) {
	if s.Kernel == "" {
		return simulation{}, fmt.Errorf("paper: job spec: empty kernel name")
	}
	if len(s.Kernel) > 128 {
		return simulation{}, fmt.Errorf("paper: job spec: kernel name longer than 128 bytes")
	}
	return s.resolve()
}

// JobResponse is the JSON body of a refused /v1/batch submission: any
// status other than 200, sent before a stream starts.
type JobResponse struct {
	// Error says why; Retryable tells the client whether the same request
	// can be re-submitted (backpressure, drain) or is terminal (malformed
	// or unresolvable spec).
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// validateTenant guards the tenant attribution of a batch request.
func validateTenant(tenant string) error {
	if len(tenant) > 64 {
		return fmt.Errorf("paper: tenant name longer than 64 bytes")
	}
	for _, r := range tenant {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("paper: tenant name contains control characters")
		}
	}
	return nil
}

// BatchRequest is the body of POST /v1/batch: a whole campaign, or a
// single point as a one-spec list, in one submission. Every point is an
// explicit spec; the client expands suites (SuiteSpecs, RenderCampaign's
// plan) before it sends them.
type BatchRequest struct {
	// Tenant attributes the whole batch for rate limiting and quotas:
	// admission charges the full job count, so packaging requests into a
	// batch never sidesteps a tenant's budget.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS bounds the whole stream: when it expires the server cuts
	// the batch exactly like a drain — in-flight jobs finish and land in
	// the cache, the stream ends with a cursor of uncompleted keys.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Specs is the campaign point list (at least one).
	Specs []JobSpec `json:"specs,omitempty"`

	// sims holds what each spec simulates, as ParseBatchRequest resolved
	// it, so Job does not resolve a spec again; plan is what its jobs share.
	sims []simulation
	plan *plan
}

// maxBatchRequestBytes bounds a batch body (a 4096-spec campaign of
// worst-case specs fits comfortably).
const maxBatchRequestBytes = 1 << 20

// MaxBatchSpecs bounds the points of one batch submission.
const MaxBatchSpecs = 4096

// suiteNames lists the suites SuiteSpecs expands. The
// measurement aliases all name the same matrix because every one of
// those artifacts is rendered from the same Measurements.
var suiteNames = []string{"measure", "table1", "fig3", "fig4", "fig5a", "breakdown"}

// ParseBatchRequest strictly decodes and validates a batch request:
// unknown fields, trailing data, oversized bodies and malformed specs are
// errors, never best-effort guesses — the server's first line of defense
// against garbage traffic (fuzzed by FuzzParseBatchRequest). Validation
// is wire-shape only: kernel names resolve later, in Job.
func ParseBatchRequest(b []byte) (*BatchRequest, error) {
	if len(b) > maxBatchRequestBytes {
		return nil, fmt.Errorf("paper: batch request larger than %d bytes", maxBatchRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var req BatchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("paper: bad batch request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("paper: trailing data after batch request")
	}
	if err := validateTenant(req.Tenant); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("paper: negative timeout_ms")
	}
	switch {
	case len(req.Specs) == 0:
		return nil, fmt.Errorf("paper: batch request has no specs")
	case len(req.Specs) > MaxBatchSpecs:
		return nil, fmt.Errorf("paper: batch of %d specs exceeds the %d-spec bound", len(req.Specs), MaxBatchSpecs)
	}
	req.sims, req.plan = make([]simulation, len(req.Specs)), new(plan)
	for i := range req.Specs {
		sim, err := req.Specs[i].validate()
		if err != nil {
			return nil, fmt.Errorf("paper: batch spec %d: %w", i, err)
		}
		req.sims[i] = sim
	}
	return &req, nil
}

// Job builds the job BuildSpecJob(r.Specs[i]) builds as a point of the
// request's plan, reusing the resolution ParseBatchRequest kept (Specs
// must not change after parsing). A request built by hand resolves here
// and shares nothing.
func (r *BatchRequest) Job(i int) (sweep.Job[json.RawMessage], error) {
	var sim *simulation
	if i < len(r.sims) {
		sim = &r.sims[i]
	}
	return specJob(r.Specs[i], sim, r.plan)
}

// SuiteSpecs expands a named suite — "table1", "fig3", "fig4", "fig5a" or
// "measure" (aliases of the same kernel × configuration measurement
// matrix) or "breakdown" (the matrix with attribution on the pulp4
// points) — into exactly the spec list the local MeasureWith-family
// producers schedule: same matrix, same order, same seed default (0
// selects 1). A batch of these specs therefore hits the same keys, and so
// the same cache entries and dedup flights, as a local sweep.
func SuiteSpecs(name string, small, observe bool, seed uint64) ([]JobSpec, error) {
	if err := checkSuite(name); err != nil {
		return nil, err
	}
	if name == "breakdown" {
		observe = true
	}
	if seed == 0 {
		seed = measureSeed // the local default
	}
	var specs []JobSpec
	for _, k := range Registry(small) {
		for _, s := range measureSpecs(k, observe, seed) {
			s.Small = small
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// checkSuite rejects a suite name that is not in suiteNames.
func checkSuite(name string) error {
	if !slices.Contains(suiteNames, name) {
		return fmt.Errorf("paper: unknown suite %q", name)
	}
	return nil
}

// Registry is the kernel suite -small (JobSpec.Small) selects: the
// reduced SmallSuite or the full PaperSuite.
func Registry(small bool) []*kernels.Instance {
	if small {
		return kernels.SmallSuite()
	}
	return kernels.PaperSuite()
}

// BatchRecord is one NDJSON line of a /v1/batch response stream. Type
// selects which of the optional fields is meaningful:
//
//	"job"       one per-point completion, as it lands, named by its
//	            index in the submitted specs (Job)
//	"heartbeat" keepalive on an idle stream — proxies see traffic
//	"cursor"    the uncompleted keys of a cut batch (Pending); resubmit
//	            them to resume — completed points are already cached
//	"summary"   the terminal record, always last (Summary)
type BatchRecord struct {
	Type    string        `json:"type"`
	Job     *BatchJob     `json:"job,omitempty"`
	Pending []string      `json:"pending,omitempty"`
	Summary *BatchSummary `json:"summary,omitempty"`
}

// Batch record types.
const (
	BatchTypeJob       = "job"
	BatchTypeHeartbeat = "heartbeat"
	BatchTypeCursor    = "cursor"
	BatchTypeSummary   = "summary"
)

// BatchJob is one streamed per-point completion. Index positions the
// point in the submitted batch, which names the spec the client sent; the
// record carries no key (the cursor keeps keys, for resume). Cached
// reports a server-side cache hit; Shared reports that the point coalesced
// onto another request's in-flight simulation. Result is the simulation
// result (its study's payload), exactly the bytes the content-addressed
// cache stores for the point's key. Error and Retryable describe a
// failure: Retryable tells the client whether re-submitting the point can
// succeed (transient failure) or not (panic, job timeout).
type BatchJob struct {
	Index     int             `json:"index"`
	Cached    bool            `json:"cached,omitempty"`
	Shared    bool            `json:"shared,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
}

// BatchSummary is the terminal accounting of one batch stream: how the
// submitted jobs resolved (Completed+Failed+Pending == Jobs), how many of
// the completions were served from the run cache or coalesced onto
// another request's flight, and the server's drain state when the stream
// ended — "draining" tells the client the pending remainder was a server
// decision, not its own disconnect.
type BatchSummary struct {
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Pending   int    `json:"pending"`
	Cached    int    `json:"cached"`
	Deduped   int    `json:"deduped"`
	Executed  int    `json:"executed"`
	State     string `json:"state"`
}

// AppendJSON appends rec's NDJSON line to dst: exactly the bytes
// json.NewEncoder(w).Encode(rec) writes, newline included, without
// reflection. Strings of printable ASCII that need no escape are copied;
// any other string is encoded by json.Marshal. A job's Result is copied
// verbatim unless it holds a byte encoding/json would rewrite or reject
// (whitespace or another byte below 0x21, '<', '>', '&', or any byte from
// 0x80 up); such a result is canonicalized by json.Marshal, which compacts
// it and escapes it for HTML, as the encoder does. A result is valid JSON
// by construction (a cache Get validated it, or a job returned
// json.Marshal output), so the copy keeps the line one valid JSON
// document. On error, which only an invalid result that needed
// canonicalizing returns, dst comes back unchanged.
func (rec *BatchRecord) AppendJSON(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, rec.Type)
	if j := rec.Job; j != nil {
		dst = appendInt(dst, `,"job":{"index":`, j.Index)
		if j.Cached {
			dst = append(dst, `,"cached":true`...)
		}
		if j.Shared {
			dst = append(dst, `,"shared":true`...)
		}
		if len(j.Result) > 0 {
			dst = append(dst, `,"result":`...)
			var err error
			if dst, err = appendResult(dst, j.Result); err != nil {
				return dst[:n], err
			}
		}
		if j.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, j.Error)
		}
		if j.Retryable {
			dst = append(dst, `,"retryable":true`...)
		}
		dst = append(dst, '}')
	}
	if len(rec.Pending) > 0 {
		dst = append(dst, `,"pending":[`...)
		for i, key := range rec.Pending {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, key)
		}
		dst = append(dst, ']')
	}
	if sum := rec.Summary; sum != nil {
		dst = appendInt(dst, `,"summary":{"jobs":`, sum.Jobs)
		dst = appendInt(dst, `,"completed":`, sum.Completed)
		dst = appendInt(dst, `,"failed":`, sum.Failed)
		dst = appendInt(dst, `,"pending":`, sum.Pending)
		dst = appendInt(dst, `,"cached":`, sum.Cached)
		dst = appendInt(dst, `,"deduped":`, sum.Deduped)
		dst = appendInt(dst, `,"executed":`, sum.Executed)
		dst = append(dst, `,"state":`...)
		dst = appendString(dst, sum.State)
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
}

// appendInt appends a member's name, colon included, and its value.
func appendInt(dst []byte, name string, v int) []byte {
	return strconv.AppendInt(append(dst, name...), int64(v), 10)
}

// appendString appends s as encoding/json encodes it, HTML escapes
// included.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendResult appends a job result as encoding/json encodes a
// json.RawMessage: verbatim when it holds nothing the encoder would
// rewrite, else through json.Marshal.
func appendResult(dst []byte, r json.RawMessage) ([]byte, error) {
	for _, c := range r {
		if c <= ' ' || c >= 0x80 || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(r)
			if err != nil {
				return dst, err
			}
			return append(dst, b...), nil
		}
	}
	return append(dst, r...), nil
}

// BuildSpecJob reconstructs the sweep job a spec names: it resolves the
// kernel in the registry Small selects and builds the job exactly as a
// local plan does, so the job's key is the key the local path produces
// for the same point — the property the whole dedup story rests on — and
// its result is exactly the bytes a local cache entry holds. Forming the
// key builds nothing: the program, its compiled image and the input are
// made only if the job runs. The job is a lone point: it shares nothing.
func BuildSpecJob(spec JobSpec) (sweep.Job[json.RawMessage], error) {
	return specJob(spec, nil, nil)
}

// specJob builds the job of one spec as a point of pl, resolving the spec
// unless sim already holds what it simulates.
func specJob(spec JobSpec, sim *simulation, pl *plan) (sweep.Job[json.RawMessage], error) {
	k := lookupKernel(spec.Small, spec.Kernel)
	if k == nil {
		return sweep.Job[json.RawMessage]{}, fmt.Errorf("paper: job spec: unknown kernel %q", spec.Kernel)
	}
	return Point{Spec: spec, k: k}.job(sim, pl)
}

// The kernels of each suite by name, indexed once per suite, so a served
// spec finds its kernel with one lookup.
var (
	paperIndex = sync.OnceValue(func() map[string]*kernels.Instance { return indexSuite(kernels.PaperSuite()) })
	smallIndex = sync.OnceValue(func() map[string]*kernels.Instance { return indexSuite(kernels.SmallSuite()) })
)

func indexSuite(suite []*kernels.Instance) map[string]*kernels.Instance {
	m := make(map[string]*kernels.Instance, len(suite))
	for _, k := range suite {
		m[k.Name] = k
	}
	return m
}

// lookupKernel finds a kernel by name in the registry small selects, or
// returns nil.
func lookupKernel(small bool, name string) *kernels.Instance {
	if small {
		return smallIndex()[name]
	}
	return paperIndex()[name]
}

// BatchRunner executes a whole campaign remotely in one submission and
// returns the raw results indexed like specs. internal/serve's
// Client.RunBatch — one streamed /v1/batch round trip plus reconnects —
// is the HTTP implementation.
type BatchRunner func(ctx context.Context, specs []JobSpec) ([]json.RawMessage, error)

// MeasureRemoteBatch measures the suite through a batch runner: the
// (kernel × configuration) matrix MeasureWith schedules locally goes out
// as a single batch submission, and the in-order raw results fold
// through the shared path — byte-identical Measurements. small must
// match the suite (it tells the server which registry resolves kernel
// names); observe requests cycle attribution on the pulp4 points.
func MeasureRemoteBatch(ctx context.Context, run BatchRunner, suite []*kernels.Instance, small, observe bool) (*Measurements, error) {
	return measure(RemoteRunner(ctx, run, small), suite, observe)
}
