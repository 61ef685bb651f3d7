package paper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/kernels"
)

// This file builds the stable content keys of the sweep jobs. A key must
// pin down everything a simulation's result depends on — the emitted
// program bytes, the input buffer, the full cluster or system shape, the
// run parameters — so that the content-addressed cache can never serve a
// stale result for a changed experiment. What keys deliberately do NOT
// capture is the simulator's own semantics; sweep.Version exists for that
// (see DESIGN.md §8 for the invalidation rules).

// hashBytes fingerprints a byte buffer for use inside a job key.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// progKey fingerprints the program exactly as the device would see it:
// the serialized binary image (see kernels.HashProgram).
func progKey(p *asm.Program) (string, error) {
	return kernels.HashProgram(p)
}

// kernelKey identifies a kernel instance plus its concrete input.
func kernelKey(k *kernels.Instance, in []byte) string {
	return fmt.Sprintf("kernel=%s(%s)|in=%s|outlen=%d|args=%x",
		k.Name, k.ParamDesc, hashBytes(in), k.OutLen(), k.Args())
}

// clusterKey identifies the cluster shape. Target features and timing are
// spelled out (not just the name) so an ablated variant can never alias
// the full configuration.
func clusterKey(cfg cluster.Config) string {
	k := fmt.Sprintf("cores=%d|tgt=%s%+v%+v|tcdm=%d/%d|l2=%d|ic=%d/%d|l2lat=%d",
		cfg.Cores, cfg.Target.Name, cfg.Target.Feat, cfg.Target.Time,
		cfg.TCDMSize, cfg.TCDMBanks, cfg.L2Size, cfg.ICacheSize, cfg.ICacheLine,
		cfg.L2Latency)
	// Observation changes the cached payload (the attribution rides in the
	// result), not the simulation; the marker is appended only when set so
	// every pre-existing cache key stays valid.
	if cfg.Observe {
		k += "|obs"
	}
	return k
}
