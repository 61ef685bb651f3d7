package kernels

import (
	"crypto/sha256"
	"encoding/hex"

	"hetsim/internal/asm"
)

// HashProgram fingerprints an emitted program by its serialized binary
// image (header, encoded text, data) — exactly the bytes the device
// loader would receive. Two programs hash equal iff the device cannot
// tell them apart, which is what makes the hash safe to use in run-cache
// keys: any code-generator change that alters the instruction stream
// changes the hash, while refactors that emit identical code do not.
func HashProgram(p *asm.Program) (string, error) {
	img, err := p.Image()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:]), nil
}
