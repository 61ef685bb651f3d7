// Package fault is a deterministic, seeded fault injector for the
// heterogeneous system: it decides — reproducibly, from a single seed —
// when a link burst arrives corrupted or not at all, when the accelerator
// wedges and never raises end-of-computation, and when the job descriptor
// is clobbered after landing in L2.
//
// The injector is consulted by internal/spilink (per burst attempt) and by
// internal/core (per offload attempt); with a nil *Injector every decision
// method is a no-op, so clean runs pay nothing. All randomness comes from a
// splitmix64 stream owned by the injector, so a given seed and call
// sequence always injects the same faults — the property the resilience
// tests and the `make ci` seed sweep rely on.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// LinkCorrupt: a link burst arrives with flipped bits.
	LinkCorrupt Class = iota
	// LinkDrop: a link burst (or its response) never arrives.
	LinkDrop
	// EOCHang: the accelerator runs but never raises end-of-computation
	// (a stuck EOC wire or a wedged device).
	EOCHang
	// DescCorrupt: the job descriptor is corrupted in L2 after the write
	// (a memory fault the link CRC cannot see).
	DescCorrupt
	// TCDMFlip: a single-event upset flips one bit of a word as it is
	// written into the TCDM (core store, DMA beat or loader word).
	TCDMFlip
	// L2Flip: the same SEU model for the SoC L2 memory.
	L2Flip
	// ICacheParity: an instruction-cache line fails its parity check on a
	// hit. Parity errors are always *detected*: the line is invalidated and
	// refilled from L2, so the fault costs a refill penalty, never wrong
	// execution.
	ICacheParity
	// DMACorrupt: one bit of a DMA beat flips in flight between L2 and the
	// TCDM (the lightweight DMA has no ECC, so this lands silently).
	DMACorrupt

	numClasses
)

func (c Class) String() string {
	switch c {
	case LinkCorrupt:
		return "link-corrupt"
	case LinkDrop:
		return "link-drop"
	case EOCHang:
		return "eoc-hang"
	case DescCorrupt:
		return "desc-corrupt"
	case TCDMFlip:
		return "tcdm-flip"
	case L2Flip:
		return "l2-flip"
	case ICacheParity:
		return "icache-parity"
	case DMACorrupt:
		return "dma-corrupt"
	}
	return "?"
}

// MemClasses lists the memory-level fault classes, the campaign axis of
// the chaos engine (internal/chaos). Link and protocol classes
// (LinkCorrupt, LinkDrop, EOCHang, DescCorrupt) are covered by the PR 1
// resilience drills.
var MemClasses = []Class{TCDMFlip, L2Flip, ICacheParity, DMACorrupt}

// ParseClass parses a class name as printed by Class.String, accepting
// the short spec-key aliases used by ParseSpec ("tcdm", "l2", "parity",
// "dma") as well.
func ParseClass(s string) (Class, error) {
	switch s {
	case "tcdm":
		return TCDMFlip, nil
	case "l2":
		return L2Flip, nil
	case "parity":
		return ICacheParity, nil
	case "dma":
		return DMACorrupt, nil
	case "corrupt":
		return LinkCorrupt, nil
	case "drop":
		return LinkDrop, nil
	case "hang":
		return EOCHang, nil
	case "desc":
		return DescCorrupt, nil
	}
	for c := Class(0); c < numClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault class %q", s)
}

// Outcome is the fate of one link burst attempt.
type Outcome int

const (
	// BurstOK: the burst arrives intact.
	BurstOK Outcome = iota
	// BurstCorrupt: the burst arrives with flipped bits.
	BurstCorrupt
	// BurstDrop: the burst never arrives.
	BurstDrop
)

// Config sets the per-decision fault probabilities. All rates are in
// [0, 1]; a zero Config injects nothing.
type Config struct {
	Seed uint64

	LinkCorruptRate float64 // per burst attempt
	LinkDropRate    float64 // per burst attempt
	EOCHangRate     float64 // per offload attempt
	DescCorruptRate float64 // per descriptor write

	// Memory-level fault rates (SEU model). Flip rates roll once per word
	// written — the upset strikes the cell as the write lands — and the
	// parity rate rolls once per I-cache fetch hit.
	TCDMFlipRate   float64 // per TCDM word write
	L2FlipRate     float64 // per L2 word write
	ParityRate     float64 // per I-cache fetch hit
	DMACorruptRate float64 // per DMA beat

	// MaxFaults bounds the total number of injected faults (0 = no bound),
	// so tests can express "the first k decisions fail, then the hardware
	// heals" and recovery paths terminate deterministically.
	MaxFaults int
}

// Rate returns the configured rate of one class.
func (c Config) Rate(cl Class) float64 {
	switch cl {
	case LinkCorrupt:
		return c.LinkCorruptRate
	case LinkDrop:
		return c.LinkDropRate
	case EOCHang:
		return c.EOCHangRate
	case DescCorrupt:
		return c.DescCorruptRate
	case TCDMFlip:
		return c.TCDMFlipRate
	case L2Flip:
		return c.L2FlipRate
	case ICacheParity:
		return c.ParityRate
	case DMACorrupt:
		return c.DMACorruptRate
	}
	return 0
}

// SetRate sets the rate of one class, the programmatic counterpart of the
// per-class ParseSpec keys (the chaos engine builds one single-class
// config per trial this way).
func (c *Config) SetRate(cl Class, r float64) {
	switch cl {
	case LinkCorrupt:
		c.LinkCorruptRate = r
	case LinkDrop:
		c.LinkDropRate = r
	case EOCHang:
		c.EOCHangRate = r
	case DescCorrupt:
		c.DescCorruptRate = r
	case TCDMFlip:
		c.TCDMFlipRate = r
	case L2Flip:
		c.L2FlipRate = r
	case ICacheParity:
		c.ParityRate = r
	case DMACorrupt:
		c.DMACorruptRate = r
	}
}

func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"corrupt", c.LinkCorruptRate},
		{"drop", c.LinkDropRate},
		{"hang", c.EOCHangRate},
		{"desc", c.DescCorruptRate},
		{"tcdm", c.TCDMFlipRate},
		{"l2", c.L2FlipRate},
		{"parity", c.ParityRate},
		{"dma", c.DMACorruptRate},
	} {
		// The inverted form also rejects NaN, which passes both `< 0`
		// and `> 1` and would otherwise sail through ParseFloat("NaN").
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("fault: %s rate %v out of [0, 1]", r.name, r.v)
		}
	}
	if c.MaxFaults < 0 {
		return fmt.Errorf("fault: negative fault bound %d", c.MaxFaults)
	}
	return nil
}

// Injector is a seeded fault source. The zero value and the nil pointer
// inject nothing; build one with New. Not safe for concurrent use — it is
// consulted from the single simulation goroutine.
type Injector struct {
	cfg      Config
	state    uint64
	injected [numClasses]int
}

// New builds an injector. Invalid rates panic: fault configs come from
// test code or from ParseSpec, which validates first.
func New(cfg Config) *Injector {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, state: cfg.Seed}
}

// SplitMix64 advances the splitmix64 state s and returns the stream's
// next value. It is the one seeded generator behind every injector and
// jitter source in the repository, so a seed replays bit-identically
// wherever it is drawn.
func SplitMix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Unit maps a SplitMix64 value to a uniform float in [0, 1).
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// next advances the injector's splitmix64 stream.
func (in *Injector) next() uint64 { return SplitMix64(&in.state) }

// roll decides one fault of class c at the given rate and records it.
func (in *Injector) roll(rate float64, c Class) bool {
	if in == nil || rate <= 0 {
		return false
	}
	if in.cfg.MaxFaults > 0 && in.Injected() >= in.cfg.MaxFaults {
		return false
	}
	if Unit(in.next()) >= rate {
		return false
	}
	in.injected[c]++
	return true
}

// LinkBurst decides the fate of one burst attempt on the link.
func (in *Injector) LinkBurst() Outcome {
	if in == nil {
		return BurstOK
	}
	if in.roll(in.cfg.LinkCorruptRate, LinkCorrupt) {
		return BurstCorrupt
	}
	if in.roll(in.cfg.LinkDropRate, LinkDrop) {
		return BurstDrop
	}
	return BurstOK
}

// EOCHang decides whether this offload attempt's end-of-computation never
// reaches the host.
func (in *Injector) EOCHang() bool {
	return in != nil && in.roll(in.cfg.EOCHangRate, EOCHang)
}

// DescCorrupt decides whether the descriptor just written is clobbered in
// device memory.
func (in *Injector) DescCorrupt() bool {
	return in != nil && in.roll(in.cfg.DescCorruptRate, DescCorrupt)
}

// SEUMask rolls one memory-level fault of class c for a value that is
// `bits` wide (8, 16 or 32) and returns an XOR mask with exactly one bit
// set when the upset strikes, 0 otherwise. The caller applies the mask to
// the word being written (TCDMFlip, L2Flip) or moved (DMACorrupt); a nil
// injector or a zero rate returns 0 without touching the PRNG stream.
func (in *Injector) SEUMask(c Class, bits uint32) uint32 {
	if in == nil {
		return 0
	}
	if !in.roll(in.cfg.Rate(c), c) {
		return 0
	}
	return 1 << (in.next() % uint64(bits))
}

// ParityHit decides whether this I-cache fetch hit sees a parity error
// (detected: the line is invalidated and refilled).
func (in *Injector) ParityHit() bool {
	return in != nil && in.roll(in.cfg.ParityRate, ICacheParity)
}

// CorruptBit flips one deterministically chosen bit of data in place.
func (in *Injector) CorruptBit(data []byte) {
	if in == nil || len(data) == 0 {
		return
	}
	r := in.next()
	data[r%uint64(len(data))] ^= 1 << ((r >> 32) % 8)
}

// Injected returns the total number of faults injected so far.
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	n := 0
	for _, c := range in.injected {
		n += c
	}
	return n
}

// Count returns how many faults of one class were injected.
func (in *Injector) Count(c Class) int {
	if in == nil || c < 0 || c >= numClasses {
		return 0
	}
	return in.injected[c]
}

// String summarizes the injected faults ("3 faults: link-corrupt=2 eoc-hang=1").
func (in *Injector) String() string {
	if in == nil {
		return "no injector"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d faults:", in.Injected())
	for c := Class(0); c < numClasses; c++ {
		if in.injected[c] > 0 {
			fmt.Fprintf(&b, " %s=%d", c, in.injected[c])
		}
	}
	return b.String()
}

// DeriveSeed mixes parts into base through the same splitmix64 stream the
// injector uses, yielding a deterministic per-trial seed from a campaign
// seed plus coordinates (kernel index, fault class, rate bits, trial
// number). Unlike a plain XOR it separates trials that differ in a single
// low bit.
func DeriveSeed(base uint64, parts ...uint64) uint64 {
	s := Injector{state: base}
	out := s.next()
	for _, p := range parts {
		// Feed the mixed previous output back in so the fold is
		// position-sensitive: a plain state += p would make (…,1,0)
		// and (…,0,1) collide (addition commutes under splitmix).
		s.state = out ^ p
		out = s.next()
	}
	return out
}

// ParseSpec parses a command-line fault specification of the form
// "seed=3,rate=0.2" — comma-separated key=value pairs. Keys:
//
//	seed    PRNG seed (uint)
//	rate    shorthand: sets the four link/protocol class rates at once
//	        (corrupt, drop, hang, desc — NOT the memory classes, which
//	        would silently corrupt outputs and have their own keys)
//	corrupt link bit-flip rate per burst
//	drop    lost-burst rate per burst
//	hang    EOC-hang rate per offload attempt
//	desc    descriptor-corruption rate per descriptor write
//	tcdm    SEU bit-flip rate per TCDM word write
//	l2      SEU bit-flip rate per L2 word write
//	parity  I-cache parity-error rate per fetch hit
//	dma     DMA beat corruption rate per word moved
//	max     total fault bound (0 = unlimited)
//
// Specific class keys override the shorthand regardless of order.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	type override struct {
		set bool
		v   float64
	}
	var corrupt, drop, hang, desc override
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: malformed field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			cfg.Seed = n
		case "max":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad max %q: %v", v, err)
			}
			cfg.MaxFaults = n
		case "rate", "corrupt", "drop", "hang", "desc", "tcdm", "l2", "parity", "dma":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad %s %q: %v", k, v, err)
			}
			switch k {
			case "rate":
				cfg.LinkCorruptRate = f
				cfg.LinkDropRate = f
				cfg.EOCHangRate = f
				cfg.DescCorruptRate = f
			case "corrupt":
				corrupt = override{true, f}
			case "drop":
				drop = override{true, f}
			case "hang":
				hang = override{true, f}
			case "desc":
				desc = override{true, f}
			case "tcdm":
				cfg.TCDMFlipRate = f
			case "l2":
				cfg.L2FlipRate = f
			case "parity":
				cfg.ParityRate = f
			case "dma":
				cfg.DMACorruptRate = f
			}
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q", k)
		}
	}
	if corrupt.set {
		cfg.LinkCorruptRate = corrupt.v
	}
	if drop.set {
		cfg.LinkDropRate = drop.v
	}
	if hang.set {
		cfg.EOCHangRate = hang.v
	}
	if desc.set {
		cfg.DescCorruptRate = desc.v
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
