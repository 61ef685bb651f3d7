package kernels

import (
	"encoding/hex"

	"hetsim/internal/asm"
)

// HashProgram fingerprints an emitted program by its serialized binary
// image (header, encoded text, data) — exactly the bytes the device
// loader would receive. Two programs hash equal iff the device cannot
// tell them apart, which is what makes the hash safe to use in run-cache
// keys: any code-generator change that alters the instruction stream
// changes the hash, while refactors that emit identical code do not.
// It counts no encode (asm.Program.Digest).
func HashProgram(p *asm.Program) (string, error) {
	sum, err := p.Digest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum[:]), nil
}
