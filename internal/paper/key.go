package paper

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"

	"hetsim/internal/kernels"
)

// This file builds the cache keys of the campaign's sweep jobs. A key
// names what a point asks for — its study, kernel, seed and parameter —
// plus the model fingerprint, which stands for everything the spec does
// not spell out: the emitted programs, the inputs, the cluster shapes and
// the simulator's results. Forming a key therefore builds nothing, and a
// warm campaign touches only the cache (see DESIGN.md §8).

// modelFingerprint is the checked-in testdata/model.fingerprint: the
// sha256 of the campaign goldens, of the chaos drill golden
// (internal/chaos/testdata/drill.golden, which covers the fault model)
// and of the content keys of every campaign point. TestModelFingerprint
// recomputes it and fails when the tree disagrees; `go test
// ./internal/chaos -update`, then `go test ./internal/paper -update`
// rewrite it together with the goldens, which sends every existing cache
// entry cold once.
//
//go:embed testdata/model.fingerprint
var modelFingerprint string

// ModelFingerprint returns the model fingerprint every campaign and chaos
// key carries.
func ModelFingerprint() string { return strings.TrimSpace(modelFingerprint) }

// specKey is the cache key of a point: the study prefix (disjoint per
// study), the kernel and its sizes, the seed, the point's one
// configuration or study parameter, the resolved observation flag and the
// model fingerprint. resolve leaves every parameter but the point's own at
// its zero value, and JobSpec.Small is left out: the sizes in ParamDesc
// already tell the suites apart, and a local point does not set it.
func specKey(prefix string, k *kernels.Instance, s JobSpec, observe bool) string {
	return fmt.Sprintf("%s|kernel=%s(%s)|seed=%d|cfg=%s|variant=%s|banks=%d|threads=%d|obs=%t|model=%s",
		prefix, k.Name, k.ParamDesc, s.Seed, s.Config, s.Variant, s.Banks, s.Threads, observe, ModelFingerprint())
}

// hashBytes fingerprints a byte buffer for use inside a key.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// kernelKey identifies a kernel instance plus its concrete input.
func kernelKey(k *kernels.Instance, in []byte) string {
	return fmt.Sprintf("kernel=%s(%s)|in=%s|outlen=%d|args=%x",
		k.Name, k.ParamDesc, hashBytes(in), k.OutLen(), k.Args())
}
