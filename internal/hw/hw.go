// Package hw is the single source of truth for the simulated platform's
// physical memory map and memory-mapped register layout. Both the code
// generators (which emit addresses into kernel binaries) and the simulator
// components (which decode accesses) import it, so the two can never drift.
//
// The map mirrors the PULP3 SoC of the paper: a cluster with a multi-banked
// TCDM scratchpad, an event unit (HW synchronizer) and a lightweight DMA,
// plus a 64 kB L2 on the SoC bus that the QSPI slave port writes into.
package hw

// Physical memory map.
const (
	// TCDMBase is the start of the tightly-coupled data memory (L1
	// scratchpad shared by the cluster cores).
	TCDMBase uint32 = 0x1000_0000
	// DefaultTCDMSize is the cluster scratchpad size.
	DefaultTCDMSize uint32 = 64 * 1024
	// DefaultTCDMBanks is the number of word-interleaved TCDM banks
	// (PULP clusters use 2 banks per core; 4 cores -> 8 banks).
	DefaultTCDMBanks = 8

	// EvtBase is the event unit (HW synchronizer) register page.
	EvtBase uint32 = 0x1020_0000
	// DMABase is the cluster DMA controller register page.
	DMABase uint32 = 0x1020_1000
	// SoCCtlBase is the SoC control register page (EOC, status).
	SoCCtlBase uint32 = 0x1A10_0000

	// L2Base is the SoC second-level memory holding the offloaded binary
	// image, the job descriptor, and staged input/output data.
	L2Base uint32 = 0x1C00_0000
	// DefaultL2Size matches the 64 kB of L2 SRAM in PULP3.
	DefaultL2Size uint32 = 64 * 1024
)

// Event unit registers (offsets from EvtBase). A store to BarrierArrive is
// the "arrive and sleep until barrier" operation; the last arriver wakes
// every participant in a few cycles, like the PULP HW synchronizer.
const (
	EvtBarrierArrive uint32 = 0x00 // W: arrive at barrier; value = team size
	EvtSend          uint32 = 0x04 // W: set event latch of cores in bitmask
	EvtStatus        uint32 = 0x08 // R: bitmask of sleeping cores
	EvtMutexLock     uint32 = 0x0C // R: returns 1 when lock acquired, else stalls
	EvtMutexUnlock   uint32 = 0x10 // W: release the mutex
)

// DMA controller registers (offsets from DMABase). Programming model:
// write Src, Dst, Len, then write Start with a channel id; poll Status or
// wait for the DMA event. One outstanding transfer per channel.
const (
	DMASrc    uint32 = 0x00
	DMADst    uint32 = 0x04
	DMALen    uint32 = 0x08
	DMAStart  uint32 = 0x0C // W: value = channel id (0..NumDMAChannels-1)
	DMAStatus uint32 = 0x10 // R: bitmask of busy channels
)

// NumDMAChannels is the number of independent DMA channels.
const NumDMAChannels = 4

// SoC control registers (offsets from SoCCtlBase).
const (
	SoCEOC    uint32 = 0x00 // W: raise end-of-computation GPIO toward host
	SoCStatus uint32 = 0x04 // R: bit0 = fetch enable seen
)

// Job descriptor. The host writes this block into L2 right after the binary
// image; the device-side runtime (crt0) reads it to locate buffers, the
// iteration count and the team size. All fields are 32-bit little-endian.
const (
	DescBase uint32 = L2Base + 0x40 // descriptor location in L2

	DescEntry   uint32 = 0x00 // entry PC of the kernel binary
	DescIn      uint32 = 0x04 // input buffer address (TCDM, runtime view)
	DescInLen   uint32 = 0x08
	DescOut     uint32 = 0x0C // output buffer address (TCDM)
	DescOutLen  uint32 = 0x10
	DescIters   uint32 = 0x14 // benchmark iterations to run per offload
	DescThreads uint32 = 0x18 // team size for parallel regions (1..4)
	DescArg0    uint32 = 0x1C // kernel-specific scalar arguments
	DescArg1    uint32 = 0x20
	DescArg2    uint32 = 0x24
	DescArg3    uint32 = 0x28
	DescInLMA   uint32 = 0x2C // L2 address of staged input (crt0 DMAs it in)
	DescOutLMA  uint32 = 0x30 // L2 address where output is staged back
	DescDataLMA uint32 = 0x34 // L2 address of the binary's data image
	DescDataLen uint32 = 0x38
	DescDataVMA uint32 = 0x3C // TCDM address the data image is copied to
	DescSize    uint32 = 0x40 // total descriptor size in bytes
)

// Binary/text layout. The offloaded image is loaded at L2Base+TextOffset;
// the descriptor sits between L2Base and the image.
const (
	TextOffset uint32 = 0x100
	TextBase   uint32 = L2Base + TextOffset
)

// DataVMABase is where crt0 copies the binary's initialized data (LUTs,
// weights, support vectors) inside the TCDM so kernels access it at
// single-cycle latency.
const DataVMABase uint32 = TCDMBase

// StackSize is the per-core stack carved from the top of TCDM. Core i's
// stack pointer starts at TCDMBase+TCDMSize-i*StackSize.
const StackSize uint32 = 512
