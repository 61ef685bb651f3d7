// Package spilink models the host-accelerator coupling link of the paper:
// a SPI (1 data lane) or QSPI (4 lanes) connection whose clock is derived
// from the host MCU clock, carrying a simple framed protocol (command,
// address, length, payload) into the accelerator's L2 through the QSPI
// slave port, plus the two GPIO event wires (fetch-enable toward the
// accelerator, end-of-computation toward the host).
//
// The model is transaction-level: every byte that crosses the link is
// really moved (into the simulated L2), and the time/energy are computed
// from the clock, lane count and framing overhead. This is the layer whose
// throughput produces the amortization curves and the bandwidth plateau of
// Fig. 5b.
//
// For resilience the link optionally frames every burst with a CRC-32
// trailer (Config.CRC): a corrupted or lost burst is detected and
// retransmitted up to Config.MaxRetransmits times, and both the trailer
// and every repeated burst cost real wire bytes, so the protection shows
// up in TransferTime/TransferEnergy and in the Link counters. Without CRC
// framing an injected fault (see internal/fault) is silent: flipped bits
// land in L2 and lost bursts leave stale memory — exactly the failure the
// framing exists to catch.
package spilink

import (
	"errors"
	"fmt"
	"hash/crc32"

	"hetsim/internal/fault"
	"hetsim/internal/mem"
	"hetsim/internal/obs"
	"hetsim/internal/power"
)

// DefaultMaxBurst is the largest payload per transaction when Config does
// not say otherwise (the QSPI page size of the prototype).
const DefaultMaxBurst = 4096

// DefaultMaxRetransmits bounds per-burst recovery attempts under CRC
// framing when Config does not say otherwise.
const DefaultMaxRetransmits = 8

// crcBytes is the size of the per-burst CRC-32 trailer.
const crcBytes = 4

// Typed link failures, matchable with errors.Is.
var (
	// ErrLinkCRC: a burst kept failing its CRC check beyond the
	// retransmission limit.
	ErrLinkCRC = errors.New("spilink: CRC mismatch persists past retransmission limit")
	// ErrLinkDropped: a burst (or its response) kept vanishing beyond the
	// retransmission limit.
	ErrLinkDropped = errors.New("spilink: burst lost past retransmission limit")
)

// Config describes the physical link configuration.
type Config struct {
	Lanes   int     // 1 = SPI, 4 = QSPI
	ClockHz float64 // SPI clock (typically MCU clock / 2)
	// CmdBytes is the framing overhead per burst: command byte, 32-bit
	// address, 32-bit length.
	CmdBytes int
	// MaxBurst is the largest payload per transaction; longer transfers
	// split into bursts, each paying the framing overhead. 0 selects
	// DefaultMaxBurst.
	MaxBurst int

	// CRC appends a CRC-32 trailer to every burst, enabling corruption and
	// loss detection with bounded retransmission. The 4 trailer bytes per
	// burst and every retransmitted burst are charged as wire bytes.
	CRC bool
	// MaxRetransmits bounds per-burst recovery attempts when CRC framing
	// is on (0 selects DefaultMaxRetransmits).
	MaxRetransmits int
}

// DefaultConfig returns the QSPI configuration used by the paper's
// evaluation (QSPI interface of the STM32-L476), clocked at half the MCU
// clock.
func DefaultConfig(mcuClockHz float64) Config {
	return Config{Lanes: 4, ClockHz: mcuClockHz / 2, CmdBytes: 9, MaxBurst: DefaultMaxBurst}
}

// ByteRate returns the payload byte rate of the link in bytes/second.
func (c Config) ByteRate() float64 {
	return c.ClockHz * float64(c.Lanes) / 8
}

// burstSize returns the effective per-transaction payload limit.
func (c Config) burstSize() int {
	if c.MaxBurst > 0 {
		return c.MaxBurst
	}
	return DefaultMaxBurst
}

// burstOverhead returns the framing bytes each burst pays on the wire.
func (c Config) burstOverhead() int {
	if c.CRC {
		return c.CmdBytes + crcBytes
	}
	return c.CmdBytes
}

// maxRetransmits returns the effective per-burst recovery bound.
func (c Config) maxRetransmits() int {
	if c.MaxRetransmits > 0 {
		return c.MaxRetransmits
	}
	return DefaultMaxRetransmits
}

// wireBytes returns the total bytes on the wire for a payload of n bytes,
// including per-burst framing (and the CRC trailer when enabled).
func (c Config) wireBytes(n int) int {
	if n == 0 {
		return 0
	}
	burst := c.burstSize()
	bursts := (n + burst - 1) / burst
	return n + bursts*c.burstOverhead()
}

// TransferTime returns the wall-clock seconds needed to move an n-byte
// payload across the link (fault-free).
func (c Config) TransferTime(n int) float64 {
	return float64(c.wireBytes(n)) / c.ByteRate()
}

// TransferEnergy returns the link energy of an n-byte payload (fault-free).
func (c Config) TransferEnergy(n int) float64 {
	return float64(c.wireBytes(n)*8) * power.SPIEnergyPerBit
}

// Link is a stateful link instance bound to the accelerator's L2: Write and
// Read actually move the bytes (the same bytes the device runtime later
// consumes), and the counters feed the reports.
type Link struct {
	Cfg Config

	// Inject, when non-nil, corrupts or drops individual burst attempts
	// (deterministic fault injection; see internal/fault). Nil costs
	// nothing.
	Inject *fault.Injector

	// TL, when non-nil, receives one wall-clock span per burst attempt on
	// track (TLPid, TLTid); retransmitted attempts carry category "retx" so
	// the repeats are visible in the viewer. The cursor is the wall-clock
	// position of the next burst, advanced by each attempt's wire time; the
	// offload runtime seeks it to the host clock before each link-driven
	// phase (TLSeek). Nil costs one compare per burst attempt.
	TL           *obs.Timeline
	TLPid, TLTid int
	tlCursor     float64 // seconds

	// Stats.
	TxBytes      uint64 // payload bytes host -> accelerator
	RxBytes      uint64 // payload bytes accelerator -> host
	Transactions uint64
	BusySeconds  float64
	EnergyJ      float64

	// Resilience stats.
	Retransmits        uint64 // burst attempts repeated after detection
	RetransmittedBytes uint64 // wire bytes spent on those repeats
	CRCErrors          uint64 // bursts detected corrupt by the CRC check
	DroppedBursts      uint64 // bursts detected lost (response timeout)
	SilentFaults       uint64 // injected faults that went undetected (no CRC)
}

// New builds a link, normalizing the configuration (unset MaxBurst and
// MaxRetransmits take their defaults, negative CmdBytes is clamped).
func New(cfg Config) *Link {
	if cfg.MaxBurst <= 0 {
		cfg.MaxBurst = DefaultMaxBurst
	}
	if cfg.CmdBytes < 0 {
		cfg.CmdBytes = 0
	}
	if cfg.MaxRetransmits <= 0 {
		cfg.MaxRetransmits = DefaultMaxRetransmits
	}
	return &Link{Cfg: cfg}
}

// TLSeek positions the timeline burst cursor (seconds on the wall clock)
// for subsequent transfers.
func (l *Link) TLSeek(t float64) { l.tlCursor = t }

// tlBurst emits one burst-attempt span and advances the cursor by its
// wire time. Callers guard on l.TL != nil.
func (l *Link) tlBurst(name, cat string, wire int) {
	t := float64(wire) / l.Cfg.ByteRate()
	l.TL.Span(l.TLPid, l.TLTid, name, cat, l.tlCursor*1e6, t*1e6,
		map[string]any{"wire_bytes": wire})
	l.tlCursor += t
}

// account charges one completed transfer to the counters and returns its
// wall-clock time.
func (l *Link) account(wire int) float64 {
	t := float64(wire) / l.Cfg.ByteRate()
	l.Transactions++
	l.BusySeconds += t
	l.EnergyJ += float64(wire*8) * power.SPIEnergyPerBit
	return t
}

// Write moves a payload into accelerator memory through the QSPI slave,
// returning the transfer time. Under CRC framing a corrupted or dropped
// burst is retransmitted (bounded by Cfg.MaxRetransmits); without it the
// fault lands in memory undetected.
func (l *Link) Write(dst *mem.SRAM, addr uint32, data []byte) (float64, error) {
	if l.Inject == nil && !l.Cfg.CRC {
		// Fast path: the exact happy-path cost model.
		if err := dst.WriteBytes(addr, data); err != nil {
			return 0, fmt.Errorf("spilink: %w", err)
		}
		l.TxBytes += uint64(len(data))
		if l.TL != nil {
			l.tlBurst("tx "+obs.KB(len(data)), "spi", l.Cfg.wireBytes(len(data)))
		}
		return l.account(l.Cfg.wireBytes(len(data))), nil
	}
	if !dst.Contains(addr, uint32(len(data))) {
		return 0, fmt.Errorf("spilink: write of %d bytes at %#x outside accelerator memory", len(data), addr)
	}
	wire, err := l.moveBursts(len(data), "tx", func(off, n int) error {
		chunk := data[off : off+n]
		switch l.Inject.LinkBurst() {
		case fault.BurstCorrupt:
			// The burst arrives with a flipped bit. The slave recomputes
			// the CRC-32 of what it received and compares it against the
			// trailer sent with the burst.
			bad := append([]byte(nil), chunk...)
			l.Inject.CorruptBit(bad)
			if l.Cfg.CRC && crc32.ChecksumIEEE(bad) != crc32.ChecksumIEEE(chunk) {
				// Detected: the slave NAKs, nothing reaches memory.
				l.CRCErrors++
				return errBurstCorrupt
			}
			// Undetectable: the flipped bits land in device memory.
			l.SilentFaults++
			return dst.WriteBytes(addr+uint32(off), bad)
		case fault.BurstDrop:
			if l.Cfg.CRC {
				// No ack within the burst window: the host times out and
				// resends.
				l.DroppedBursts++
				return errBurstDrop
			}
			// Undetectable: the memory keeps whatever it held before.
			l.SilentFaults++
			return nil
		}
		return dst.WriteBytes(addr+uint32(off), chunk)
	})
	if err != nil {
		// The wasted traffic still happened; charge it before failing.
		l.account(wire)
		return 0, fmt.Errorf("spilink: write at %#x: %w", addr, err)
	}
	l.TxBytes += uint64(len(data))
	return l.account(wire), nil
}

// Read moves a payload out of accelerator memory, returning the data and
// the transfer time. Under CRC framing a corrupted or dropped response
// burst is re-read; without it the host consumes whatever arrived.
func (l *Link) Read(src *mem.SRAM, addr uint32, n uint32) ([]byte, float64, error) {
	if !src.Contains(addr, n) {
		return nil, 0, fmt.Errorf("spilink: read of %d bytes at %#x outside accelerator memory", n, addr)
	}
	if l.Inject == nil && !l.Cfg.CRC {
		// Fast path: nothing on the wire can mutate the payload, so hand
		// out the accelerator memory directly (SRAM.Bytes, zero-copy).
		// The slice is read-only and valid until the next device write.
		data := src.Bytes(addr, n)
		l.RxBytes += uint64(len(data))
		if l.TL != nil {
			l.tlBurst("rx "+obs.KB(len(data)), "spi", l.Cfg.wireBytes(len(data)))
		}
		return data, l.account(l.Cfg.wireBytes(len(data))), nil
	}
	data := src.ReadBytes(addr, n)
	wire, err := l.moveBursts(len(data), "rx", func(off, n int) error {
		chunk := data[off : off+n]
		switch l.Inject.LinkBurst() {
		case fault.BurstCorrupt:
			// The response burst arrives with a flipped bit; the host
			// checks the trailer CRC against what it received.
			want := crc32.ChecksumIEEE(chunk)
			l.Inject.CorruptBit(chunk)
			if l.Cfg.CRC && crc32.ChecksumIEEE(chunk) != want {
				// Detected: restore is not needed — the host discards the
				// burst and re-reads, and the next attempt re-fetches from
				// memory.
				copy(chunk, src.Bytes(addr+uint32(off), uint32(n)))
				l.CRCErrors++
				return errBurstCorrupt
			}
			l.SilentFaults++
		case fault.BurstDrop:
			if l.Cfg.CRC {
				l.DroppedBursts++
				return errBurstDrop
			}
			// Undetectable: the host's receive buffer keeps its reset
			// state for this burst.
			l.SilentFaults++
			for i := range chunk {
				chunk[i] = 0
			}
		}
		return nil
	})
	if err != nil {
		l.account(wire)
		return nil, 0, fmt.Errorf("spilink: read at %#x: %w", addr, err)
	}
	l.RxBytes += uint64(len(data))
	return data, l.account(wire), nil
}

// Charge accounts an n-byte transfer (tx: host to accelerator, else the
// reverse) exactly as a fault-free Write or Read of n bytes would: the
// same wire bytes, time, energy and counters, in call order, but no data
// moves. It prices a transfer whose bytes need not land anywhere — the
// link phases of an offload composed from an already measured compute. A
// link with an injector or a timeline attached refuses: injected faults
// act on real bytes, and a charge emits no burst spans.
func (l *Link) Charge(n int, tx bool) (float64, error) {
	if l.Inject != nil || l.TL != nil {
		return 0, errors.New("spilink: charge needs a link without fault injection or timeline")
	}
	if tx {
		l.TxBytes += uint64(n)
	} else {
		l.RxBytes += uint64(n)
	}
	return l.account(l.Cfg.wireBytes(n)), nil
}

// Detected-bad burst attempts inside moveBursts.
var (
	errBurstCorrupt = errors.New("burst CRC rejected")
	errBurstDrop    = errors.New("burst lost")
)

// moveBursts drives the burst loop shared by Write and Read: it splits an
// n-byte payload, invokes move for every burst attempt, and retries
// detected-bad attempts while the retransmission budget lasts. It returns
// the total wire bytes consumed, including repeats. dir labels the burst
// spans on the timeline ("tx"/"rx").
func (l *Link) moveBursts(n int, dir string, move func(off, n int) error) (wire int, err error) {
	if n == 0 {
		return 0, nil
	}
	burst := l.Cfg.burstSize()
	over := l.Cfg.burstOverhead()
	for off := 0; off < n; off += burst {
		size := burst
		if off+size > n {
			size = n - off
		}
		for attempt := 0; ; attempt++ {
			wire += size + over
			if l.TL != nil {
				// The attempt's wire time is spent whether or not the burst
				// lands; retransmits get their own category.
				if attempt > 0 {
					l.tlBurst(dir+" retransmit", "retx", size+over)
				} else {
					l.tlBurst(dir+" burst", "spi", size+over)
				}
			}
			err := move(off, size)
			if err == nil {
				break
			}
			bad := errors.Is(err, errBurstCorrupt)
			if !bad && !errors.Is(err, errBurstDrop) {
				return wire, err
			}
			if attempt >= l.Cfg.maxRetransmits() {
				if bad {
					return wire, ErrLinkCRC
				}
				return wire, ErrLinkDropped
			}
			l.Retransmits++
			l.RetransmittedBytes += uint64(size + over)
		}
	}
	return wire, nil
}
