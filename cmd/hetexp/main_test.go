package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/paper"
)

// TestUnknownExpRejected builds the real hetexp binary and passes it a
// misspelled -exp: it must exit non-zero before measuring anything, print
// nothing on stdout and name every valid experiment on stderr — locally
// and under -remote alike (the remote URL is never dialled).
func TestUnknownExpRejected(t *testing.T) {
	bin := buildHetexp(t)
	for _, args := range [][]string{
		{"-exp", "fig4a", "-small", "-no-cache"},
		{"-exp", "fig4a", "-small", "-no-cache", "-remote", "http://127.0.0.1:1"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("hetexp %v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("hetexp %v wrote stdout:\n%s", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `unknown -exp "fig4a"`) || strings.Contains(msg, "measuring") {
			t.Errorf("hetexp %v: want an unknown -exp error before measuring, got:\n%s", args, msg)
		}
		for _, name := range append([]string{"all"}, paper.Experiments...) {
			if !strings.Contains(msg, name) {
				t.Errorf("hetexp %v: error does not list %q:\n%s", args, name, msg)
			}
		}
	}
}

// TestUnknownKernelRejected passes a -kernel outside the suite: the plan
// step must reject it before any job runs — nothing on stdout, no
// measuring or sweep progress on stderr, the kernel named — locally and
// under -remote alike (the remote URL is never dialled).
func TestUnknownKernelRejected(t *testing.T) {
	bin := buildHetexp(t)
	for _, args := range [][]string{
		{"-small", "-no-cache", "-exp", "fig5b", "-kernel", "nosuch"},
		{"-small", "-no-cache", "-exp", "fig5b", "-kernel", "nosuch", "-remote", "http://127.0.0.1:1"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("hetexp %v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("hetexp %v wrote stdout:\n%s", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `"nosuch"`) || strings.Contains(msg, "measuring") || strings.Contains(msg, "sweep:") {
			t.Errorf("hetexp %v: want the unknown kernel rejected before any job runs, got:\n%s", args, msg)
		}
	}
}

// buildHetexp builds the real hetexp binary into a test directory.
func buildHetexp(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hetexp")
	if out, err := exec.Command("go", "build", "-o", bin, "hetsim/cmd/hetexp").CombinedOutput(); err != nil {
		t.Fatalf("building hetexp: %v\n%s", err, out)
	}
	return bin
}
