package sweep

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrJobTimeout, false},
		{fmt.Errorf("job x: %w", ErrJobTimeout), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&PanicError{}, false},
		{fmt.Errorf("wrapped: %w", &PanicError{}), false},
		{ErrInjectedWriteFault, true},
		{fmt.Errorf("disk full"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetrierBackoffBounds(t *testing.T) {
	r := newRetrier(RetryPolicy{Max: 5, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 42})
	for n := 0; n < 8; n++ {
		d := r.backoff(n)
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("backoff(%d) = %v out of (0, cap]", n, d)
		}
	}
	// Terminal errors are never retried.
	calls := 0
	err := r.do(func() error {
		calls++
		return ErrJobTimeout
	}, nil)
	if calls != 1 || err == nil {
		t.Fatalf("terminal error retried: calls=%d err=%v", calls, err)
	}
	// The budget bounds transient retries.
	calls = 0
	r2 := newRetrier(RetryPolicy{Max: 2, Base: time.Millisecond, Cap: time.Millisecond, Seed: 1})
	err = r2.do(func() error {
		calls++
		return fmt.Errorf("transient")
	}, nil)
	if calls != 3 || err == nil {
		t.Fatalf("budget: calls=%d err=%v", calls, err)
	}
}

// TestZeroRetryPolicyRetriesNothing: an engine without a RetryPolicy —
// cmd/hetexp's — runs a transiently failing job once and counts no retry.
func TestZeroRetryPolicyRetriesNothing(t *testing.T) {
	eng := New(Config{Workers: 1})
	calls := 0
	_, err := Run(eng, []Job[int]{{Key: "k", Run: func() (int, error) {
		calls++
		return 0, fmt.Errorf("transient")
	}}})
	if err == nil || calls != 1 {
		t.Fatalf("zero policy: calls=%d err=%v", calls, err)
	}
	if st := eng.Stats(); st.ExecRetries != 0 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
