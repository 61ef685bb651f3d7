package sweep

import (
	"errors"
	"sync"

	"hetsim/internal/fault"
)

// WriteStage names one crash window inside Cache.write, in commit order.
// Each is a point where a killed or failing writer leaves the store in a
// different state, and each must degrade to a countable miss or WriteFail
// — never a corrupt hit (cachefault_test.go proves it per stage; the
// process-level crash drill proves it under real SIGKILL).
type WriteStage int

const (
	FaultTempWrite WriteStage = iota // writing the temp file (partial bytes on disk)
	FaultSync                        // fsyncing the temp file (bytes may not be durable)
	FaultRename                      // renaming into place (entry never appears)
	FaultDirSync                     // fsyncing the parent dir (entry valid, durability unknown)
	writeStages
)

func (s WriteStage) String() string {
	switch s {
	case FaultTempWrite:
		return "temp-write"
	case FaultSync:
		return "fsync"
	case FaultRename:
		return "rename"
	case FaultDirSync:
		return "dir-fsync"
	}
	return "?"
}

// ErrInjectedWriteFault marks a WriteFaults-injected failure, so tests
// and drills can tell an injected miss from a real I/O error.
var ErrInjectedWriteFault = errors.New("sweep: injected cache write fault")

// WriteFaults injects failures into the crash windows of Cache.write:
// a seeded splitmix64 stream (fault.SplitMix64) decides the per-stage
// rates, and FailFirst deterministically fails the first attempts of
// every key. It is the one cache-write fault injector of the stack — the
// crash-window tests arm every stage, and hetsimd's -fault-cachefail*
// drills arm FaultTempWrite under the server's put retry. A nil
// *WriteFaults decides nothing and costs one nil compare per stage.
type WriteFaults struct {
	// Seed feeds the splitmix64 stream behind the rate-based decisions.
	Seed uint64
	// Rates holds the per-stage failure probability (zero = never).
	Rates [4]float64
	// FailFirst deterministically fails the first N write attempts of
	// every key that reach the given stage (0 disables) — the knob that
	// lets a retry budget > N provably exercise the retry path and still
	// persist each entry.
	FailFirst [4]int

	mu       sync.Mutex
	rng      uint64
	seeded   bool
	injected [4]uint64
	firsts   map[firstFail]int
}

// firstFail keys the FailFirst counters: one per stage and cache key.
type firstFail struct {
	stage WriteStage
	key   string
}

// fail decides whether the write attempt of key currently at stage
// should fail, returning ErrInjectedWriteFault when it should.
func (f *WriteFaults) fail(stage WriteStage, key string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.FailFirst[stage]; n > 0 {
		if f.firsts == nil {
			f.firsts = make(map[firstFail]int)
		}
		if k := (firstFail{stage, key}); f.firsts[k] < n {
			f.firsts[k]++
			f.injected[stage]++
			return ErrInjectedWriteFault
		}
	}
	if f.Rates[stage] > 0 {
		if !f.seeded {
			f.rng, f.seeded = f.Seed, true
		}
		if fault.Unit(fault.SplitMix64(&f.rng)) < f.Rates[stage] {
			f.injected[stage]++
			return ErrInjectedWriteFault
		}
	}
	return nil
}

// Injected reports how many failures each stage has injected.
func (f *WriteFaults) Injected() [4]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}
