// Package hetsim is a simulation-based reproduction of "Enabling the
// Heterogeneous Accelerator Model on Ultra-Low Power Microcontroller
// Platforms" (Conti et al., DATE 2016): a cycle-level model of a PULP-like
// 4-core accelerator coupled to a Cortex-M-class MCU over a SPI/QSPI link,
// an OpenMP-style offload runtime, the paper's power model, the ten
// benchmark kernels of its Table I, and harnesses that regenerate every
// table and figure of its evaluation.
//
// This package is the stable public surface. A minimal offload looks like:
//
//	sys, _ := hetsim.NewSystem(hetsim.SystemConfig{
//	    Host: hetsim.STM32L476, HostFreqHz: 16e6, Lanes: 4,
//	    AccVdd: 0.8, AccFreqHz: 200e6,
//	})
//	dev := hetsim.NewDevice(sys)
//	k := hetsim.MatMulChar(64)
//	prog, _ := k.Build(hetsim.PULPFull, hetsim.Accel)
//	in := k.Input(1)
//	res, _ := dev.Target(prog,
//	    hetsim.MapTo(in), hetsim.MapFrom(k.OutLen()), hetsim.NumThreads(4))
//	// res.Out == k.Golden(in); res.Report has time & energy.
//
// The heavy lifting lives in the internal packages: isa/asm (instruction
// set and code generation), cpu/mem/dma/hwsync/cluster (the cycle-level
// accelerator), devrt (the device-side runtime), spilink/mcu/core (the
// heterogeneous system), power (the energy model), kernels (the benchmark
// suite) and paper (the experiment generators).
package hetsim

import (
	"hetsim/internal/asm"
	"hetsim/internal/core"
	"hetsim/internal/devrt"
	"hetsim/internal/fault"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/mcu"
	"hetsim/internal/obs"
	"hetsim/internal/omp"
	"hetsim/internal/paper"
	"hetsim/internal/power"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// --- Targets and runtime modes ----------------------------------------------

// Target is a core configuration (ISA feature set + timing model).
type Target = isa.Target

// The four core configurations of the study.
var (
	// PULPFull is the OR10N accelerator core with all extensions.
	PULPFull = isa.PULPFull
	// PULPPlain is the plain-RISC configuration used to count RISC ops.
	PULPPlain = isa.PULPPlain
	// CortexM3 and CortexM4 are the host-core profiles.
	CortexM3 = isa.CortexM3
	CortexM4 = isa.CortexM4
)

// Mode selects the device runtime flavour of a built kernel binary.
type Mode = devrt.Mode

// Runtime modes.
const (
	// Accel builds a binary for offloading (DMA staging, EOC signal).
	Accel = devrt.Accel
	// Host builds a binary for native execution on the MCU.
	Host = devrt.Host
)

// --- Benchmark kernels ---------------------------------------------------------

// Kernel is a parameterized benchmark: a target-aware code generator with
// a bit-exact golden model and a deterministic input generator.
type Kernel = kernels.Instance

// Program is a linked, loadable kernel binary.
type Program = asm.Program

// The ten kernels of the paper's Table I (constructors accept sizes; the
// paper's sizes are the defaults returned by PaperSuite).
var (
	MatMulChar  = kernels.MatMulChar
	MatMulShort = kernels.MatMulShort
	MatMulFixed = kernels.MatMulFixed
	Strassen    = kernels.Strassen
	SVM         = kernels.SVM
	CNN         = kernels.CNN
	HOG         = kernels.HOG
)

// SVM kernel flavours.
const (
	SVMLinear = kernels.SVMLinear
	SVMPoly   = kernels.SVMPoly
	SVMRBF    = kernels.SVMRBF
)

// PaperSuite returns the ten benchmarks at the paper's sizes.
func PaperSuite() []*Kernel { return kernels.PaperSuite() }

// KernelByName finds a paper-suite kernel by its Table I name.
func KernelByName(name string) (*Kernel, error) { return kernels.ByName(name) }

// --- Heterogeneous system --------------------------------------------------------

// SystemConfig selects host, link and accelerator operating point.
type SystemConfig = core.Config

// System is a host+link+accelerator instance.
type System = core.System

// OffloadOptions tunes iterations and double buffering.
type OffloadOptions = core.Options

// OffloadReport is the time/energy accounting of an offload.
type OffloadReport = core.Report

// Job describes one offload (binary + I/O contract).
type Job = loader.Job

// BaselineResult is a native MCU execution.
type BaselineResult = mcu.BaselineResult

// NewSystem builds a heterogeneous system.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// --- OpenMP-style API ---------------------------------------------------------------

// Device is an OpenMP offload device wrapping a System.
type Device = omp.Device

// NewDevice wraps a system as an OpenMP device.
func NewDevice(sys *System) *Device { return omp.NewDevice(sys) }

// Clause configures a target region.
type Clause = omp.Clause

// Target-region clauses.
var (
	MapTo        = omp.MapTo
	MapFrom      = omp.MapFrom
	NumThreads   = omp.NumThreads
	Args         = omp.Args
	Iterations   = omp.Iterations
	DoubleBuffer = omp.DoubleBuffer
)

// Resilience clauses (EOC watchdog, retry/backoff, host fallback,
// descriptor write-verify, fault injection).
var (
	Timeout          = omp.Timeout
	Retries          = omp.Retries
	Backoff          = omp.Backoff
	HostFallback     = omp.HostFallback
	VerifyDescriptor = omp.VerifyDescriptor
	Inject           = omp.Inject
)

// FromSensor feeds the region's input from a sensor over the given wiring.
func FromSensor(s Sensor, p SensorPath) Clause {
	return omp.FromSensor(FeedFrom(s, p))
}

// --- Fault injection and error taxonomy ---------------------------------------------

// FaultConfig sets the seeded per-decision fault probabilities.
type FaultConfig = fault.Config

// FaultInjector is a deterministic seeded fault source attachable to an
// offload via OffloadOptions.Faults or the Inject clause.
type FaultInjector = fault.Injector

// NewFaultInjector builds an injector (invalid rates panic; validate via
// ParseFaultSpec for user input).
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// ParseFaultSpec parses a "seed=3,rate=0.01,max=5" fault specification
// (the cmd/hetsim -faults syntax).
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// Typed offload failures, matchable with errors.Is.
var (
	// ErrLinkCRC: a link burst kept failing its CRC beyond the
	// retransmission limit.
	ErrLinkCRC = core.ErrLinkCRC
	// ErrLinkDropped: a link burst kept vanishing beyond the
	// retransmission limit.
	ErrLinkDropped = core.ErrLinkDropped
	// ErrEOCTimeout: an offload attempt ended without a usable EOC before
	// the watchdog expired.
	ErrEOCTimeout = core.ErrEOCTimeout
	// ErrDeviceHang: the accelerator stayed unresponsive after every retry.
	ErrDeviceHang = core.ErrDeviceHang
	// ErrDescriptorCorrupt: the descriptor readback kept mismatching.
	ErrDescriptorCorrupt = core.ErrDescriptorCorrupt
)

// --- Power model ------------------------------------------------------------------

// MCUModel is a commercial microcontroller's power/performance model.
type MCUModel = power.MCUModel

// The comparison devices of Fig. 3.
var (
	STM32L476   = power.STM32L476
	STM32F407   = power.STM32F407
	STM32F446   = power.STM32F446
	NXPLPC1800  = power.NXPLPC1800
	EFM32GG     = power.EFM32GG
	MSP430      = power.MSP430
	AmbiqApollo = power.AmbiqApollo
)

// AllMCUs lists every modelled MCU.
func AllMCUs() []MCUModel { return power.AllMCUs }

// Activity is the chi-ratio profile of the accelerator power model.
type Activity = power.Activity

// PULPFMaxAt returns the accelerator's maximum frequency at a voltage.
func PULPFMaxAt(vdd float64) float64 { return power.FMaxAt(vdd) }

// PULPBestOp finds the fastest accelerator operating point within a power
// budget for a given activity profile (the Fig. 5a envelope solver).
var PULPBestOp = power.BestOp

// --- Sensors (Figure 1 / Section V) --------------------------------------------------

// Sensor is a periodic data source with its own interface (camera, ADC).
type Sensor = sensor.Sensor

// SensorPath selects the sensor wiring.
type SensorPath = sensor.Path

// Sensor wirings: through the host MCU (Figure 1) or directly into the
// accelerator's L2 (the Section V variant).
const (
	SensorViaHost = sensor.HostPath
	SensorDirect  = sensor.DirectPath
)

// Prebuilt sensors.
var (
	QVGACamera = sensor.QVGACamera
	BioADC     = sensor.BioADC
)

// SensorFeed is the per-iteration acquisition description consumed by
// OffloadOptions.Sensor.
type SensorFeed = core.SensorFeed

// FeedFrom converts a sensor+wiring into an offload option.
func FeedFrom(s Sensor, p SensorPath) *SensorFeed {
	at, ej, via := s.Feed(p)
	return &SensorFeed{AcquireTime: at, SampleEnergyJ: ej, ViaLink: via}
}

// --- Observability ----------------------------------------------------------

// Attribution is the per-core cycle attribution of an observed run; pass
// one via OffloadOptions.Obs (see internal/obs for the class taxonomy).
type Attribution = obs.Attribution

// NewAttribution builds an attribution ledger (OffloadOptions.Obs grows
// it to the cluster size, so 0 cores is fine).
var NewAttribution = obs.NewAttribution

// Timeline collects the offload-level span timeline; pass one via
// OffloadOptions.Timeline and Export it as Chrome trace-event JSON.
type Timeline = obs.Timeline

// NewTimeline builds an empty timeline.
var NewTimeline = obs.NewTimeline

// --- Experiments ----------------------------------------------------------------------

// Measurements caches per-kernel simulations for the experiment generators.
type Measurements = paper.Measurements

// Measure simulates a kernel suite on every configuration of the study.
func Measure(suite []*Kernel) (*Measurements, error) {
	return paper.MeasureWith(sweep.New(sweep.Config{}), suite)
}
