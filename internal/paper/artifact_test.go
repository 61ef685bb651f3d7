package paper

import (
	"reflect"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/kernels"
	"hetsim/internal/power"
	"hetsim/internal/sweep"
)

// TestPULP4ArtifactMatchesOffload proves the independence claim the
// composing generators (Fig. 5b, link and sensor ablations) rest on: for
// every kernel, the measured pulp-4t cycles and activity are exactly the
// compute step of a direct offload of the same job — with and without
// cycle attribution attached to the measurement (-breakdown).
func TestPULP4ArtifactMatchesOffload(t *testing.T) {
	suite := kernels.SmallSuite()
	for _, measure := range []struct {
		name string
		run  func(*sweep.Engine, []*kernels.Instance) (*Measurements, error)
	}{{"MeasureWith", MeasureWith}, {"MeasureObservedWith", MeasureObservedWith}} {
		m, err := measure.run(sweep.New(sweep.Config{}), suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range suite {
			c, err := m.offload(k)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystem(core.Config{Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4,
				AccVdd: 0.8, AccFreqHz: 200e6})
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := sys.Offload(c.job, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			km := m.ByK[k.Name]
			if km.Cycles[cfgPULP4] != rep.ComputeCycles {
				t.Errorf("%s/%s: measured %d pulp-4t cycles, offload computed %d",
					measure.name, k.Name, km.Cycles[cfgPULP4], rep.ComputeCycles)
			}
			if !reflect.DeepEqual(km.Activity, rep.Activity) {
				t.Errorf("%s/%s: measured activity %+v, offload %+v", measure.name, k.Name, km.Activity, rep.Activity)
			}
		}
	}
}

// TestComposersRejectForeignKernel checks that the composing generators
// refuse a kernel whose instance differs from the measured one of the
// same name: its measured compute would not be the offloaded program's.
func TestComposersRejectForeignKernel(t *testing.T) {
	m := smallMeasure(t)
	big := kernels.PaperSuite()[0] // matmul at paper size, measured small
	if _, err := Figure5b(big, m); err == nil {
		t.Error("Figure5b composed a kernel instance that was not measured")
	}
	if _, err := LinkAblation(big, m); err == nil {
		t.Error("LinkAblation composed a kernel instance that was not measured")
	}
}
