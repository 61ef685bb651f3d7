// Package power implements the energy model of Section IV-A of the paper:
//
//	P_d = f_clk * sum_i ( chi_i,state * rho_i,state )
//
// where chi are per-component activity ratios measured by the simulator's
// performance counters and rho are dynamic power densities derived from
// post-layout analysis of the PULP3 chip. We re-derive the densities from
// the paper's published anchors: the cluster burns ~1.48 mW running matmul
// on 4 cores at the 0.6 V operating point (~50 MHz), leakage is a small
// fraction there, and f_max(V) spans roughly 4..450 MHz over 0.5..1.0 V.
// Densities scale as (V/Vref)^2 and leakage as (V/Vref)^3.
//
// The MCU side is a table of commercial parts at datasheet typical run
// currents (the devices of Fig. 3), plus the sleep current used while the
// host waits for the accelerator's end-of-computation event.
package power

import (
	"fmt"

	"hetsim/internal/cluster"
	"hetsim/internal/isa"
)

// VRef is the reference voltage of the density calibration.
const VRef = 0.6

// PULP dynamic power densities at VRef, in watts per hertz (i.e. J/cycle).
// Calibrated so that the matmul activity profile at 0.6 V / 50 MHz totals
// ~1.48 mW including leakage.
const (
	RhoCoreRun  = 4.4e-12 // per core, executing or stalled
	RhoCoreIdle = 0.5e-12 // per core, clock-gated in WFE
	RhoICache   = 3.2e-12 // shared I$, scaled by fraction of cores running
	RhoTCDM     = 2.6e-12 // per TCDM access per cycle
	RhoDMA      = 2.0e-12 // DMA engine while busy
	RhoSoC      = 2.6e-12 // always-on SoC logic (interconnect, FLL, QSPI)
)

// LeakRefW is the cluster+SoC leakage at VRef.
const LeakRefW = 0.12e-3

// OpPoint is a PULP voltage/frequency operating point.
type OpPoint struct {
	VDD  float64 // volts
	FMax float64 // Hz
}

// OpPoints are the characterized points, 0.5 V to 1.0 V in 100 mV steps
// (the range of the paper's post-layout analysis).
var OpPoints = []OpPoint{
	{0.5, 4e6}, // near-threshold frequency cliff
	{0.6, 50e6},
	{0.7, 120e6},
	{0.8, 220e6},
	{0.9, 330e6},
	{1.0, 450e6},
}

// FMaxAt interpolates the maximum frequency at a voltage between the
// characterized points (the "simple polynomial interpolation model" of the
// paper; piecewise-linear between adjacent points).
func FMaxAt(v float64) float64 {
	if v <= OpPoints[0].VDD {
		return OpPoints[0].FMax
	}
	last := OpPoints[len(OpPoints)-1]
	if v >= last.VDD {
		return last.FMax
	}
	for i := 1; i < len(OpPoints); i++ {
		if v <= OpPoints[i].VDD {
			a, b := OpPoints[i-1], OpPoints[i]
			t := (v - a.VDD) / (b.VDD - a.VDD)
			return a.FMax + t*(b.FMax-a.FMax)
		}
	}
	return last.FMax
}

// Activity is the set of chi ratios of the power model, extracted from the
// cluster's performance counters over a run.
type Activity struct {
	CoreRun  float64 // summed over cores: fraction of cycles active+stalled
	CoreIdle float64 // summed over cores: fraction of cycles asleep
	TCDM     float64 // TCDM accesses per cycle
	DMA      float64 // fraction of cycles the DMA moved data
}

// ActivityOf derives the chi ratios from collected cluster statistics.
func ActivityOf(s cluster.Stats) Activity {
	if s.Cycles == 0 {
		return Activity{}
	}
	cyc := float64(s.Cycles)
	var a Activity
	for _, c := range s.Cores {
		a.CoreRun += float64(c.Active+c.Stall) / cyc
		a.CoreIdle += float64(c.Sleep) / cyc
	}
	a.TCDM = float64(s.TCDMAccess) / cyc
	a.DMA = float64(s.DMABusy) / cyc
	return a
}

// IdleActivity is the accelerator parked in WFE (all cores clock-gated).
func IdleActivity(cores int) Activity {
	return Activity{CoreIdle: float64(cores)}
}

// scale returns the dynamic density scaling factor at voltage v.
func scale(v float64) float64 { s := v / VRef; return s * s }

// LeakW returns the leakage power at voltage v.
func LeakW(v float64) float64 { s := v / VRef; return LeakRefW * s * s * s }

// DensityWPerHz returns the total effective dynamic density (J/cycle) of
// the cluster for an activity profile at voltage v.
func DensityWPerHz(v float64, a Activity) float64 {
	d := a.CoreRun*RhoCoreRun +
		a.CoreIdle*RhoCoreIdle +
		a.CoreRun/4*RhoICache + // I$ activity tracks running cores
		a.TCDM*RhoTCDM +
		a.DMA*RhoDMA +
		RhoSoC
	return d * scale(v)
}

// PULPPowerW evaluates the paper's power model: dynamic power at frequency
// f plus leakage, for an activity profile at voltage v.
func PULPPowerW(v, f float64, a Activity) float64 {
	return f*DensityWPerHz(v, a) + LeakW(v)
}

// BestOp finds the operating point (voltage and frequency) that maximizes
// the PULP clock frequency within the power budget for the given activity,
// mirroring the envelope exploration of Fig. 5a: at each voltage the
// frequency is capped both by f_max(V) and by the budget; the best
// voltage wins. Returns ok=false if even the lowest point cannot fit.
func BestOp(budgetW float64, a Activity) (v, f float64, ok bool) {
	const steps = 50
	lo, hi := OpPoints[0].VDD, OpPoints[len(OpPoints)-1].VDD
	for i := 0; i <= steps; i++ {
		vv := lo + (hi-lo)*float64(i)/steps
		leak := LeakW(vv)
		if leak >= budgetW {
			continue
		}
		ff := (budgetW - leak) / DensityWPerHz(vv, a)
		if fm := FMaxAt(vv); ff > fm {
			ff = fm
		}
		if ff > f {
			v, f, ok = vv, ff, true
		}
	}
	return v, f, ok
}

// --- Commercial MCUs ---------------------------------------------------------

// MCUModel is a commercial microcontroller from the paper's comparison set
// with its datasheet typical run characteristics.
type MCUModel struct {
	Name     string
	Core     string     // marketing core name
	Target   isa.Target // simulation profile
	FMax     float64    // Hz
	RunWHz   float64    // run power per Hz (W/Hz), typical, at 3.3 V
	SleepW   float64    // deep-sleep power while waiting for the EOC GPIO
	CyclePen float64    // cycle-count penalty vs the profile (MSP430: 16-bit datapath)
}

// The devices of Fig. 3, with run currents from the cited datasheets
// (typical values at 3.3 V; W/Hz = mA/MHz * 3.3 / 1e6 scaled).
var (
	STM32L476 = MCUModel{Name: "STM32-L476", Core: "Cortex-M4", Target: isa.CortexM4,
		FMax: 80e6, RunWHz: 0.33e-9, SleepW: 0.01e-3}
	STM32F407 = MCUModel{Name: "STM32F407", Core: "Cortex-M4", Target: isa.CortexM4,
		FMax: 168e6, RunWHz: 0.71e-9, SleepW: 0.30e-3}
	STM32F446 = MCUModel{Name: "STM32F446", Core: "Cortex-M4", Target: isa.CortexM4,
		FMax: 180e6, RunWHz: 0.66e-9, SleepW: 0.20e-3}
	NXPLPC1800 = MCUModel{Name: "NXP LPC1800", Core: "Cortex-M3", Target: isa.CortexM3,
		FMax: 180e6, RunWHz: 0.83e-9, SleepW: 0.25e-3}
	EFM32GG = MCUModel{Name: "EFM32 Giant Gecko", Core: "Cortex-M3", Target: isa.CortexM3,
		FMax: 48e6, RunWHz: 0.66e-9, SleepW: 0.003e-3}
	MSP430 = MCUModel{Name: "TI MSP430", Core: "MSP430 (16-bit)", Target: isa.CortexM3,
		FMax: 25e6, RunWHz: 0.76e-9, SleepW: 0.002e-3, CyclePen: 1.4}
	AmbiqApollo = MCUModel{Name: "Ambiq Apollo", Core: "Cortex-M4", Target: isa.CortexM4,
		FMax: 24e6, RunWHz: 0.115e-9, SleepW: 0.0005e-3}
)

// AllMCUs is the Fig. 3 comparison set.
var AllMCUs = []MCUModel{STM32L476, STM32F407, STM32F446, NXPLPC1800, EFM32GG, MSP430, AmbiqApollo}

// RunPowerW returns the MCU's active power at frequency f.
func (m MCUModel) RunPowerW(f float64) float64 { return m.RunWHz * f }

// Cycles applies the model's cycle penalty to a simulated cycle count.
func (m MCUModel) Cycles(simCycles uint64) float64 {
	p := m.CyclePen
	if p == 0 {
		p = 1
	}
	return float64(simCycles) * p
}

// MCUByName finds a model by name.
func MCUByName(name string) (MCUModel, error) {
	for _, m := range AllMCUs {
		if m.Name == name {
			return m, nil
		}
	}
	return MCUModel{}, fmt.Errorf("power: unknown MCU %q", name)
}

// --- SPI link -----------------------------------------------------------------

// SPIEnergyPerBit is the pad+driver energy of one transferred bit over the
// board-level link (both ends), dominated by the pad capacitance at 3.3 V.
const SPIEnergyPerBit = 25e-12 // J

// SPIPowerW returns the link power while clocking at fSPI with the given
// lane count.
func SPIPowerW(fSPI float64, lanes int) float64 {
	return fSPI * float64(lanes) * SPIEnergyPerBit
}

// --- Energy bookkeeping ---------------------------------------------------------

// Energy accumulates energy per consumer over a composed timeline.
type Energy struct {
	MCUJ    float64
	PULPJ   float64
	SPIJ    float64
	SensorJ float64
}

// TotalJ sums all consumers.
func (e Energy) TotalJ() float64 { return e.MCUJ + e.PULPJ + e.SPIJ + e.SensorJ }

// Add accumulates another energy record.
func (e *Energy) Add(o Energy) {
	e.MCUJ += o.MCUJ
	e.PULPJ += o.PULPJ
	e.SPIJ += o.SPIJ
	e.SensorJ += o.SensorJ
}

// EfficiencyGOPSW converts operations and energy into GOPS/W (== ops/nJ).
func EfficiencyGOPSW(ops float64, seconds float64, watts float64) float64 {
	if watts <= 0 || seconds <= 0 {
		return 0
	}
	return ops / seconds / watts / 1e9
}
