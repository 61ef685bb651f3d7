package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hetsim/internal/paper"
)

// Client is the HTTP client side of the service: it submits campaigns as
// streamed /v1/batch requests (a single point is a one-spec batch),
// honors the server's backpressure (429/503 + Retry-After become bounded
// waits, not errors), re-submits the incomplete remainder of a cut
// stream, and propagates its context's deadline to the server. Its zero
// value plus a BaseURL is usable; Client.RunBatch is a paper.BatchRunner,
// which is how `hetexp -remote` plugs a server under paper.RemoteRunner.
type Client struct {
	// BaseURL roots the service, e.g. "http://127.0.0.1:9966".
	BaseURL string
	// Tenant attributes requests for rate limiting (empty = anonymous).
	Tenant string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds consecutive submissions that complete no point,
	// backpressure waits included (<= 0 selects 10).
	MaxAttempts int
	// MaxWait caps a single Retry-After or backoff wait (<= 0: 5s).
	MaxWait time.Duration

	reconnects atomic.Uint64
}

// Reconnects reports how many times RunBatch re-submitted the incomplete
// remainder of a campaign after a cut or broken stream.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 10
}

func (c *Client) maxWait() time.Duration {
	if c.MaxWait > 0 {
		return c.MaxWait
	}
	return 5 * time.Second
}

// RunBatch runs a whole campaign through one streamed /v1/batch
// submission and returns the raw results indexed like specs (it is a
// paper.BatchRunner — how `hetexp -remote` folds a remote sweep). It
// consumes per-job completion records as the server lands them, and on
// any cut — server drain cursor, broken connection, request deadline on
// the server side — reconnects and re-submits only the still-incomplete
// points: the completed remainder is already in the server's cache, so a
// resume costs one round trip plus the missing work. Forward progress
// refreshes the attempt budget (MaxAttempts bounds *consecutive*
// attempts without a single completion); a terminal per-point failure
// aborts the whole batch.
func (c *Client) RunBatch(ctx context.Context, specs []paper.JobSpec) ([]json.RawMessage, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	attempts := c.maxAttempts()
	maxWait := c.maxWait()
	results := make([]json.RawMessage, len(specs))
	done := make([]bool, len(specs))
	remaining := len(specs)
	var lastErr error
	for n, first := 0, true; n < attempts; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := make([]int, 0, remaining)
		for i, d := range done {
			if !d {
				idx = append(idx, i)
			}
		}
		if !first {
			c.reconnects.Add(1)
		}
		first = false
		progressed, wait, err := c.streamBatch(ctx, idx, specs, results, done)
		remaining -= progressed
		if remaining == 0 {
			return results, nil
		}
		lastErr = err
		if wait < 0 { // terminal
			return nil, err
		}
		if progressed > 0 {
			// Forward progress: the next submission is strictly smaller, so
			// refresh the budget — it bounds stalls, not total round trips.
			n = -1
		}
		if wait == 0 {
			wait = time.Duration(50*(n+2)) * time.Millisecond
		}
		if wait > maxWait {
			wait = maxWait
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("serve: batch incomplete after %d attempts without progress (%d of %d points missing): %w",
		attempts, remaining, len(specs), lastErr)
}

// streamBatch performs one /v1/batch round trip over the incomplete
// points (idx indexes specs), filling results/done as job records land.
// progressed counts points newly completed on this connection; wait tells
// RunBatch how to continue: < 0 terminal, 0 retry after default backoff,
// > 0 retry after the server-requested wait.
func (c *Client) streamBatch(ctx context.Context, idx []int, specs []paper.JobSpec,
	results []json.RawMessage, done []bool) (progressed int, wait time.Duration, err error) {
	sub := make([]paper.JobSpec, len(idx))
	for i, j := range idx {
		sub[i] = specs[j]
	}
	breq := paper.BatchRequest{Tenant: c.Tenant, Specs: sub}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		breq.TimeoutMS = ms
	}
	body, err := json.Marshal(breq)
	if err != nil {
		return 0, -1, err
	}
	url := strings.TrimSuffix(c.BaseURL, "/") + "/v1/batch"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, -1, ctx.Err()
		}
		return 0, 0, err // transport errors are worth a reconnect
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Refusals arrive as plain JSON before any stream starts:
		// backpressure (429/503) and retryable refusals are waited out,
		// anything else (a malformed or unresolvable spec) is terminal.
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if rerr != nil {
			return 0, 0, rerr
		}
		var jresp paper.JobResponse
		if err := json.Unmarshal(b, &jresp); err != nil {
			return 0, -1, fmt.Errorf("serve: undecodable batch refusal (status %d): %w", resp.StatusCode, err)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			return 0, retryAfterWait(resp, c.maxWait(), time.Now()),
				fmt.Errorf("serve: batch backpressure (%d): %s", resp.StatusCode, jresp.Error)
		case jresp.Retryable:
			return 0, 0, fmt.Errorf("serve: retryable batch refusal (%d): %s", resp.StatusCode, jresp.Error)
		default:
			return 0, -1, fmt.Errorf("serve: batch refused (%d): %s", resp.StatusCode, jresp.Error)
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxBodyBytes)
	sawSummary := false
	state := "?"
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec paper.BatchRecord
		if err := decodeRecord(line, &rec); err != nil {
			return progressed, 0, fmt.Errorf("serve: undecodable batch record: %w", err)
		}
		switch rec.Type {
		case paper.BatchTypeJob:
			j := rec.Job
			if j == nil || j.Index < 0 || j.Index >= len(idx) {
				return progressed, 0, fmt.Errorf("serve: batch job record out of range")
			}
			orig := idx[j.Index]
			switch {
			case j.Error == "":
				if !done[orig] {
					done[orig] = true
					results[orig] = j.Result
					progressed++
				}
			case !j.Retryable:
				// One terminal point (panic, job timeout) fails the whole
				// campaign — resubmitting it would fail identically.
				return progressed, -1, fmt.Errorf("serve: batch point %d (%s) failed terminally: %s", orig, pointName(specs[orig]), j.Error)
			}
			// A retryable per-point failure stays incomplete; the next
			// reconnect re-submits it.
		case paper.BatchTypeSummary:
			sawSummary = true
			if rec.Summary != nil {
				state = rec.Summary.State
			}
		case paper.BatchTypeHeartbeat, paper.BatchTypeCursor:
			// Keepalive; the cursor is informational — incompleteness is
			// already tracked point-by-point through done.
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return progressed, -1, ctx.Err()
		}
		return progressed, 0, fmt.Errorf("serve: batch stream broken: %w", err)
	}
	if !sawSummary {
		if ctx.Err() != nil {
			return progressed, -1, ctx.Err()
		}
		return progressed, 0, fmt.Errorf("serve: batch stream ended without summary")
	}
	if progressed < len(idx) {
		return progressed, 0, fmt.Errorf("serve: batch cut (server %s): %d point(s) left pending",
			state, len(idx)-progressed)
	}
	return progressed, 0, nil
}

// decodeRecord decodes one stream line into rec as json.Unmarshal does. A
// successful job record in the exact shape paper.BatchRecord.AppendJSON
// writes (an index, cached and shared when set, and a result), which is
// every line of a warm stream but the summary, is decoded without
// reflection: the fixed members are matched byte for byte and the result
// is checked with json.Valid and copied. Any other line, including one
// that only resembles that shape, goes to json.Unmarshal.
func decodeRecord(line []byte, rec *paper.BatchRecord) error {
	if job := decodeJobLine(line); job != nil {
		rec.Type, rec.Job = paper.BatchTypeJob, job
		return nil
	}
	return json.Unmarshal(line, rec)
}

// decodeJobLine decodes a line `{"type":"job","job":{"index":N` +
// `[,"cached":true][,"shared":true],"result":R}}`, or returns nil.
func decodeJobLine(line []byte) *paper.BatchJob {
	rest, ok := bytes.CutPrefix(line, []byte(`{"type":"job","job":{"index":`))
	if !ok {
		return nil
	}
	// An index is below MaxBatchSpecs: at most five digits here, with no
	// sign or leading zero.
	n, index := 0, 0
	for ; n < len(rest) && n < 5 && '0' <= rest[n] && rest[n] <= '9'; n++ {
		index = 10*index + int(rest[n]-'0')
	}
	if n == 0 || n > 1 && rest[0] == '0' {
		return nil
	}
	job := &paper.BatchJob{Index: index}
	rest = rest[n:]
	rest, job.Cached = bytes.CutPrefix(rest, []byte(`,"cached":true`))
	rest, job.Shared = bytes.CutPrefix(rest, []byte(`,"shared":true`))
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"result":`)); !ok {
		return nil
	}
	// json.Valid allows white space around the value, which
	// json.Unmarshal would not keep in the raw result.
	res, ok := bytes.CutSuffix(rest, []byte(`}}`))
	if !ok || len(res) == 0 || isSpace(res[0]) || isSpace(res[len(res)-1]) || !json.Valid(res) {
		return nil
	}
	job.Result = bytes.Clone(res)
	return job
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// pointName names a spec in an error: its kernel, plus its configuration
// or its study and study parameter.
func pointName(s paper.JobSpec) string {
	name := strconv.Quote(s.Kernel)
	if s.Config != "" {
		name += " config=" + s.Config
	}
	if s.Study != "" {
		name += " study=" + s.Study
	}
	if s.Variant != "" {
		name += " variant=" + s.Variant
	}
	if s.Banks != 0 {
		name += " banks=" + strconv.Itoa(s.Banks)
	}
	if s.Threads != 0 {
		name += " threads=" + strconv.Itoa(s.Threads)
	}
	return name
}

// retryAfterWait parses the Retry-After header in both RFC 9110 forms:
// delta-seconds and HTTP-date (reverse proxies in front of the service
// routinely rewrite one into the other). The wait is floored at one
// second — the header has no sub-second form, and treating an unparsable
// or past value as zero would busy-loop the retry — and clamped to max
// so a far-future date cannot stall the client. now is the test seam for
// the date form.
func retryAfterWait(resp *http.Response, max time.Duration, now time.Time) time.Duration {
	h := strings.TrimSpace(resp.Header.Get("Retry-After"))
	wait := time.Second
	if secs, err := strconv.Atoi(h); err == nil {
		wait = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		wait = t.Sub(now)
	}
	if wait < time.Second {
		wait = time.Second
	}
	if max > 0 && wait > max {
		wait = max
	}
	return wait
}
