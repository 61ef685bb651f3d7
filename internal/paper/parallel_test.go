package paper

import (
	"bytes"
	"reflect"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

// equivSuite is a reduced suite for the equivalence tests: big enough to
// exercise every configuration, small enough to measure twice in a test.
// Figure3/Figure4 need "matmul" present.
func equivSuite() []*kernels.Instance {
	return kernels.SmallSuite()[:4]
}

// renderAll renders every pure-post-processing artifact of a measurement
// set to one buffer, for byte comparison.
func renderAll(t *testing.T, m *Measurements) []byte {
	t.Helper()
	var buf bytes.Buffer
	RenderTable1(&buf, m.Table1())
	pts, err := m.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure3(&buf, pts)
	RenderFigure4(&buf, m.Figure4())
	RenderFigure5a(&buf, m.Figure5a())
	return buf.Bytes()
}

// TestParallelSerialEquivalence checks the scheduler's central promise:
// measurements and rendered tables are identical at 1 worker and at 8.
func TestParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full measurements")
	}
	suite := equivSuite()
	serial, err := MeasureWith(sweep.New(sweep.Config{Workers: 1}), suite)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MeasureWith(sweep.New(sweep.Config{Workers: 8}), suite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.ByK, parallel.ByK) {
		t.Fatal("measurements differ between 1 and 8 workers")
	}
	if !bytes.Equal(renderAll(t, serial), renderAll(t, parallel)) {
		t.Fatal("rendered tables differ between 1 and 8 workers")
	}

	// The simulating generators must agree too, at matching granularity.
	k := suite[0]
	e1 := sweep.New(sweep.Config{Workers: 1})
	e8 := sweep.New(sweep.Config{Workers: 8})
	b1, err := BankSweepWith(e1, k)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := BankSweepWith(e8, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b8) {
		t.Fatal("bank sweep differs between 1 and 8 workers")
	}
	f1, err := Figure5bWith(e1, k, serial)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Figure5bWith(e8, k, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f8) {
		t.Fatal("figure 5b differs between 1 and 8 workers")
	}
}

// TestMeasureCacheSkipsSimulation checks the memoization promise: a second
// measurement over the same cache performs zero simulator runs and yields
// identical results and renderings.
func TestMeasureCacheSkipsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement")
	}
	suite := equivSuite()
	dir := t.TempDir()
	c1, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := sweep.New(sweep.Config{Workers: 4, Cache: c1})
	cold, err := MeasureWith(eng1, suite)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng1.Stats(); st.Executed != st.Jobs || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}

	c2, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := sweep.New(sweep.Config{Workers: 4, Cache: c2})
	warm, err := MeasureWith(eng2, suite)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.Executed != 0 {
		t.Fatalf("warm run simulated %d jobs, want 0 (stats %+v)", st.Executed, st)
	}
	if !reflect.DeepEqual(cold.ByK, warm.ByK) {
		t.Fatal("cached measurements differ from fresh ones")
	}
	if !bytes.Equal(renderAll(t, cold), renderAll(t, warm)) {
		t.Fatal("rendered tables differ between cold and warm cache")
	}
}

// TestMeasureDuplicateKernel checks the duplicate-name guard.
func TestMeasureDuplicateKernel(t *testing.T) {
	s := kernels.SmallSuite()
	if _, err := MeasureWith(sweep.New(sweep.Config{}), []*kernels.Instance{s[0], s[0]}); err == nil {
		t.Fatal("expected an error for a duplicate kernel name")
	}
}
