package paper

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strconv"
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
// The key is appended into one buffer: every warm point forms one, and
// fmt.Sprintf's boxing showed in the server's warm profile.
func specKey(prefix string, k *kernels.Instance, s JobSpec, observe bool) string {
	fp := ModelFingerprint()
	var b strings.Builder
	var num [20]byte
	b.Grow(80 + len(prefix) + len(k.Name) + len(k.ParamDesc) + len(s.Config) + len(s.Variant) + len(fp))
	b.WriteString(prefix)
	b.WriteString("|kernel=")
	b.WriteString(k.Name)
	b.WriteByte('(')
	b.WriteString(k.ParamDesc)
	b.WriteString(")|seed=")
	b.Write(strconv.AppendUint(num[:0], s.Seed, 10))
	b.WriteString("|cfg=")
	b.WriteString(s.Config)
	b.WriteString("|variant=")
	b.WriteString(s.Variant)
	b.WriteString("|banks=")
	b.Write(strconv.AppendInt(num[:0], int64(s.Banks), 10))
	b.WriteString("|threads=")
	b.Write(strconv.AppendInt(num[:0], int64(s.Threads), 10))
	b.WriteString("|obs=")
	b.Write(strconv.AppendBool(num[:0], observe))
	b.WriteString("|model=")
	b.WriteString(fp)
	return b.String()
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
