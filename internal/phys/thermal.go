package phys

import (
	"kv3d/internal/cpu"
	"kv3d/internal/memmodel"
)

// Thermal model (§6.5): a Mercury server spreads its TDP across 96
// packages instead of concentrating it in a few sockets, so each stack
// stays within passive-cooling limits and a single 1.5U fan wall
// suffices.
const (
	// PassiveCoolingLimitW is the sustainable dissipation of a 21mm BGA
	// package with heat spreader under chassis airflow, no heatsink.
	PassiveCoolingLimitW = 8.0
	// ChassisAirflowLimitW is what a 1.5U fan wall can extract in total.
	ChassisAirflowLimitW = 800.0
	// AmbientC and JunctionMaxC bound the thermal budget.
	AmbientC     = 35.0
	JunctionMaxC = 95.0
	// ThetaJAPassive is the junction-to-ambient thermal resistance
	// (°C/W) of the package under forced chassis airflow.
	ThetaJAPassive = 7.0
)

// ThermalReport summarizes the §6.5 analysis for one configuration.
type ThermalReport struct {
	StackTDPW  float64
	JunctionC  float64
	PassiveOK  bool
	ServerTDPW float64
	AirflowOK  bool
}

// Thermal evaluates per-stack and chassis-level cooling for a
// configuration at the given per-stack memory bandwidth.
func Thermal(core cpu.Core, coresPerStack int, mem memmodel.Device, bwBytesPerSec float64, stacks int) ThermalReport {
	tdp := StackPowerW(core, coresPerStack, mem, bwBytesPerSec)
	junction := AmbientC + tdp*ThetaJAPassive
	server := tdp * float64(stacks)
	return ThermalReport{
		StackTDPW:  tdp,
		JunctionC:  junction,
		PassiveOK:  tdp <= PassiveCoolingLimitW && junction <= JunctionMaxC,
		ServerTDPW: server,
		AirflowOK:  server <= ChassisAirflowLimitW,
	}
}
