// Package fixed implements the Q-format fixed-point arithmetic used by the
// benchmark kernels of the DATE'16 heterogeneous-accelerator paper and by
// their golden (reference) models.
//
// All values are stored in int32 containers. A Q(f) number has f fractional
// bits; e.g. Q15 stores x as round(x * 2^15). The package also provides the
// integer square root and the exp/tanh lookup tables that the device-side
// kernels embed in their data sections, so that golden models and simulated
// kernels compute bit-identical results.
package fixed

// Q is the number of fractional bits of a fixed-point value.
type Q uint8

// Common formats used by the paper's kernels.
const (
	Q15 Q = 15 // 16-bit fixed point (svm, cnn, matmul-fixed)
	Q16 Q = 16 // 32-bit fixed point (hog)
	Q8  Q = 8
)

// One returns the representation of 1.0 in format q.
func (q Q) One() int32 { return int32(1) << q }

// FromFloat converts a float64 to fixed point with round-to-nearest.
func FromFloat(x float64, q Q) int32 {
	s := x * float64(int64(1)<<q)
	if s >= 0 {
		return int32(s + 0.5)
	}
	return int32(s - 0.5)
}

// Float converts a fixed-point value back to float64 (test/debug only; the
// simulated kernels never touch floating point).
func Float(x int32, q Q) float64 {
	return float64(x) / float64(int64(1)<<q)
}

// Clamp16 saturates v to [-32768, 32767].
func Clamp16(v int32) int32 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}

// Clamp8 saturates v to [-128, 127].
func Clamp8(v int32) int32 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return v
}

// ISqrt32 returns floor(sqrt(v)) for a non-negative 32-bit value, using the
// classic digit-by-digit method. The device library routine __sqrt32 emitted
// into kernel binaries is an instruction-level transcription of this loop,
// so results match bit-for-bit.
func ISqrt32(v uint32) uint32 {
	var res uint32
	bit := uint32(1) << 30
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}
