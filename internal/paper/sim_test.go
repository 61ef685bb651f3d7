package paper

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/sweep"
)

// simKeyBase is a simulation the key tests vary: small matmul on the
// PULP cluster, as a measure point runs it.
func simKeyBase(t *testing.T) (cluster.Config, loader.Job) {
	t.Helper()
	k := kernels.SmallSuite()[0]
	cfg := cluster.PULPConfig()
	prog, err := k.Build(cfg.Target, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, loader.Job{Prog: prog, In: k.Input(measureSeed), OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args()}
}

func mustSimKey(t *testing.T, cfg cluster.Config, mode devrt.Mode, job loader.Job, maxCycles uint64) [sha256.Size]byte {
	t.Helper()
	key, err := simKey(cfg, mode, job, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// leafMutation changes one leaf field of a struct.
type leafMutation struct {
	name   string
	mutate func(root reflect.Value) // root: the addressable struct
}

// leafMutations walks typ's fields depth first and returns one mutation
// per leaf: a bool flips, a number grows by one, an array element or the
// first byte of a byte slice changes. Fields named in skip (by dotted
// path) are left out; a field of any other kind fails the test, so a new
// field has to be handled here before it can slip past the key.
func leafMutations(t *testing.T, typ reflect.Type, prefix string, index []int, skip map[string]bool) []leafMutation {
	t.Helper()
	var out []leafMutation
	for i := range typ.NumField() {
		f := typ.Field(i)
		name := prefix + f.Name
		if skip[name] {
			continue
		}
		path := append(append([]int(nil), index...), i)
		field := func(root reflect.Value) reflect.Value { return root.FieldByIndex(path) }
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, leafMutations(t, f.Type, name+".", path, skip)...)
		case reflect.Bool:
			out = append(out, leafMutation{name, func(r reflect.Value) { v := field(r); v.SetBool(!v.Bool()) }})
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out = append(out, leafMutation{name, func(r reflect.Value) { v := field(r); v.SetInt(v.Int() + 1) }})
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out = append(out, leafMutation{name, func(r reflect.Value) { v := field(r); v.SetUint(v.Uint() + 1) }})
		case reflect.Array:
			if k := f.Type.Elem().Kind(); k < reflect.Uint || k > reflect.Uint64 {
				t.Fatalf("%s: no mutation for a %v field", name, f.Type)
			}
			for j := range f.Type.Len() {
				out = append(out, leafMutation{fmt.Sprintf("%s[%d]", name, j), func(r reflect.Value) {
					v := field(r).Index(j)
					v.SetUint(v.Uint() + 1)
				}})
			}
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Uint8 {
				t.Fatalf("%s: no mutation for a %v field", name, f.Type)
			}
			out = append(out, leafMutation{name, func(r reflect.Value) {
				v := field(r)
				b := append([]byte(nil), v.Bytes()...)
				b[0] ^= 1
				v.SetBytes(b)
			}})
		default:
			t.Fatalf("%s: no mutation for a %v field", name, f.Type)
		}
	}
	return out
}

// TestSimKeyCoversRunJob sets each field of cluster.Config (its target's
// timing included), of loader.Job and of the program in turn and requires
// a new simulation key, as it does for the mode and the cycle bound. Only
// names are allowed to stay out (the target's, the program's), and the
// job's Compiled, which is derived from the program and the target. The
// target's features are checked op by op in TestSimKeyFeatures.
func TestSimKeyCoversRunJob(t *testing.T) {
	cfg, job := simKeyBase(t)
	base := mustSimKey(t, cfg, devrt.Accel, job, measureMaxCycles)
	if base != mustSimKey(t, cfg, devrt.Accel, job, measureMaxCycles) {
		t.Fatal("simulation key is not deterministic")
	}
	differs := func(name string, cfg cluster.Config, mode devrt.Mode, job loader.Job, maxCycles uint64) {
		t.Helper()
		if mustSimKey(t, cfg, mode, job, maxCycles) == base {
			t.Errorf("changing %s leaves the simulation key unchanged", name)
		}
	}
	for _, m := range leafMutations(t, reflect.TypeOf(cfg), "Config.", nil, map[string]bool{
		"Config.Target.Name": true, // allowlisted: read only by error messages
		"Config.Target.Feat": true, // TestSimKeyFeatures
	}) {
		c := cfg
		m.mutate(reflect.ValueOf(&c).Elem())
		differs(m.name, c, devrt.Accel, job, measureMaxCycles)
	}
	for _, m := range leafMutations(t, reflect.TypeOf(job), "Job.", nil, map[string]bool{
		"Job.Compiled": true, // allowlisted: derived from Prog and the target
		"Job.Prog":     true, // below, field by field
	}) {
		j := job
		m.mutate(reflect.ValueOf(&j).Elem())
		differs(m.name, cfg, devrt.Accel, j, measureMaxCycles)
	}
	differs("the mode", cfg, devrt.Host, job, measureMaxCycles)
	differs("the cycle bound", cfg, devrt.Accel, job, measureMaxCycles-1)

	// The program: every field but its name changes what the cluster
	// loads; of the symbols, loader.Plan reads __heap.
	prog := map[string]func(p *asm.Program){
		"Entry":    func(p *asm.Program) { p.Entry += 4 },
		"TextBase": func(p *asm.Program) { p.TextBase += 4 },
		"Text": func(p *asm.Program) {
			p.Text = append([]isa.Inst(nil), p.Text...)
			p.Text[len(p.Text)-1] = isa.Inst{Op: isa.NOP}
		},
		"DataLMA": func(p *asm.Program) { p.DataLMA += 16 },
		"DataVMA": func(p *asm.Program) { p.DataVMA += 16 },
		"Data":    func(p *asm.Program) { p.Data = append(append([]byte(nil), p.Data...), 1) },
		"BSSLen":  func(p *asm.Program) { p.BSSLen += 16 },
		"Symbols": func(p *asm.Program) {
			p.Symbols = map[string]uint32{"__heap": p.Symbols["__heap"] + 16}
		},
	}
	pt := reflect.TypeOf(asm.Program{})
	for i := range pt.NumField() {
		name := pt.Field(i).Name
		mutate, ok := prog[name]
		if name == "Name" {
			continue // allowlisted: read only by error messages
		}
		if !ok {
			t.Errorf("asm.Program.%s: no mutation; decide whether the simulation reads it", name)
			continue
		}
		p := *job.Prog
		mutate(&p)
		j := job
		j.Prog = &p
		differs("Prog."+name, cfg, devrt.Accel, j, measureMaxCycles)
	}

	// What is allowlisted leaves the key alone.
	c, j := cfg, job
	c.Target.Name = "renamed"
	p := *job.Prog
	p.Name = "renamed"
	j.Prog = &p
	if j.Compiled, _ = kernels.Compiled(job.Prog, cfg.Target); mustSimKey(t, c, devrt.Accel, j, measureMaxCycles) != base {
		t.Error("names or a compiled image change the simulation key")
	}
}

// TestSimKeyFeatures flips each feature bit of the target in turn, for
// every small-suite kernel's full build, and requires the simulation key
// to change exactly when predecode could see the flip: the program uses an
// op whose support the bit decides, or the bit is Unaligned and the
// program touches memory. Both outcomes must occur, or the check is
// vacuous.
func TestSimKeyFeatures(t *testing.T) {
	changed, kept := 0, 0
	for _, k := range kernels.SmallSuite() {
		cfg := cluster.PULPConfig()
		prog, err := k.Build(cfg.Target, devrt.Accel)
		if err != nil {
			t.Fatal(err)
		}
		job := loader.Job{Prog: prog, In: k.Input(measureSeed), OutLen: k.OutLen(), Iters: 1, Threads: 1, Args: k.Args()}
		base := mustSimKey(t, cfg, devrt.Accel, job, measureMaxCycles)
		ft := reflect.TypeOf(isa.Features{})
		for i := range ft.NumField() {
			c := cfg
			bit := reflect.ValueOf(&c.Target.Feat).Elem().Field(i)
			bit.SetBool(!bit.Bool())
			gated := false
			for _, in := range prog.Text {
				mem := in.Op.IsLoad() || in.Op.IsStore()
				gated = gated || cfg.Target.Supports(in.Op) != c.Target.Supports(in.Op) ||
					ft.Field(i).Name == "Unaligned" && mem
			}
			if got := mustSimKey(t, c, devrt.Accel, job, measureMaxCycles) != base; got != gated {
				t.Errorf("%s: flipping Feat.%s changes the key: %t, the program uses a gated op: %t", k.Name, ft.Field(i).Name, got, gated)
			}
			if gated {
				changed++
			} else {
				kept++
			}
		}
	}
	if changed == 0 || kept == 0 {
		t.Errorf("%d flips changed the key and %d kept it; want both", changed, kept)
	}
}

// TestSimMemoKeepsNoFailure checks the memo's sharing rules: concurrent
// claimants of one key run one simulation and take its result, while a
// failed or panicked simulation is not kept, so the next claimant of the
// key simulates again.
func TestSimMemoKeepsNoFailure(t *testing.T) {
	var memo plan
	var key [sha256.Size]byte
	runs := 0
	boom := errors.New("boom")
	fail := func() (*cluster.JobResult, error) { runs++; return nil, boom }
	if _, err := memo.do(key, fail); err != boom {
		t.Fatalf("first claimant got %v, want its own failure", err)
	}
	func() {
		defer func() { _ = recover() }()
		memo.do(key, func() (*cluster.JobResult, error) { runs++; panic("boom") })
	}()
	want := &cluster.JobResult{Cycles: 7}
	res, err := memo.do(key, func() (*cluster.JobResult, error) { runs++; return want, nil })
	if err != nil || res != want || runs != 3 {
		t.Fatalf("claimant after a failure and a panic: %v, %v after %d runs; want its own result after 3", res, err, runs)
	}

	var other plan
	var wg sync.WaitGroup
	var mu sync.Mutex
	runs = 0
	results := make([]*cluster.JobResult, 8)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = other.do(key, func() (*cluster.JobResult, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				return &cluster.JobResult{}, nil
			})
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Errorf("8 claimants of one key ran %d simulations, want 1", runs)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("claimants of one key got different results")
		}
	}
}

// TestSimMemoDifferential runs the small campaign's plan twice, uncached:
// once through LocalRunner, whose jobs share one plan, and once
// as jobs that share nothing. Every raw result must be byte-identical, and
// the memo must share exactly the 31 simulations that repeat another's:
// 20 extension variants that build the full program, the 10-point full
// column (the measure matrix's pulp1 run) and the 8-bank point (matmul's
// pulp4 run). The shared plan also generates each kernel's input once.
func TestSimMemoDifferential(t *testing.T) {
	pts := campaignPlan(t, kernels.SmallSuite(), false)
	jobs := make([]sweep.Job[json.RawMessage], len(pts))
	for i, p := range pts {
		var err error
		if jobs[i], err = p.job(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	run0, shared0 := SimStats()
	alone, err := sweep.Run(sweep.New(sweep.Config{}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	run1, shared1 := SimStats()
	in1, _ := kernels.ArtifactStats()
	shared, err := LocalRunner(sweep.New(sweep.Config{}))(pts)
	if err != nil {
		t.Fatal(err)
	}
	run2, shared2 := SimStats()
	// The plan's ten kernels all run at one seed: one input each.
	if in2, _ := kernels.ArtifactStats(); in2-in1 != 10 {
		t.Errorf("memoized plan generated %d inputs, want 10: one per kernel and seed", in2-in1)
	}
	if run1-run0 != uint64(len(pts)) || shared1 != shared0 {
		t.Errorf("unshared plan: %d simulations run, %d shared; want %d and 0", run1-run0, shared1-shared0, len(pts))
	}
	if n := shared2 - shared1; n != 31 || run2-run1+n != uint64(len(pts)) {
		t.Errorf("memoized plan: %d simulations run, %d shared; want %d and 31", run2-run1, n, len(pts)-31)
	}
	for i := range pts {
		if !bytes.Equal(alone[i], shared[i]) {
			t.Errorf("%+v: unshared result %s, memoized %s", pts[i].Spec, alone[i], shared[i])
		}
	}
}
