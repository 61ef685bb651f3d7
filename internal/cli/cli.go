// Package cli holds command-line plumbing shared by the hetsim tools:
// the default run-cache location and the two-stage interrupt contract.
// The first SIGINT/SIGTERM starts an orderly shutdown (cancel contexts,
// drain in-flight work, flush partial state); a second signal
// force-exits immediately with a distinct status code — so a wedged
// drain (a hung job, a blocked flush) is killable without reaching for
// SIGKILL.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// DefaultCacheDir places the run cache under the user cache directory (an
// unresolvable one disables caching rather than failing). hetexp and
// hetsimd share it, so a local sweep warms the server and vice versa.
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "hetsim")
}

// ForceExitCode is the exit status of a second-signal force exit,
// distinct from both success (0) and an orderly failure (1) so wrappers
// and CI can tell "gave up on the drain" from "drained and failed".
const ForceExitCode = 3

// NotifyDrain returns a context cancelled by the first SIGINT/SIGTERM.
// A second signal bypasses whatever the drain is stuck on and exits the
// process with ForceExitCode. The returned stop function releases the
// signal registration (call it on the orderly exit path).
func NotifyDrain(name string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel() // first signal: begin the orderly drain
			<-ch     // second signal: the drain is taking too long — force out
			fmt.Fprintf(os.Stderr, "%s: second interrupt, forcing exit\n", name)
			os.Exit(ForceExitCode)
		case <-ctx.Done(): // orderly exit released us
			signal.Stop(ch)
		}
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}
