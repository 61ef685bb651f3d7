package paper

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

// campaignPlan captures the points RenderCampaign plans for suite, without
// running any.
func campaignPlan(t *testing.T, suite []*kernels.Instance, breakdown bool) []Point {
	t.Helper()
	var pts []Point
	stop := errors.New("planned")
	capture := func(plan []Point) ([]json.RawMessage, error) {
		pts = plan
		return nil, stop
	}
	if err := RenderCampaign(io.Discard, capture, suite, CampaignOptions{Breakdown: breakdown}); err != stop {
		t.Fatalf("RenderCampaign = %v, want the capturing runner's error", err)
	}
	return pts
}

// campaignPlans is every point of the full and small campaigns, with and
// without the breakdown.
func campaignPlans(t *testing.T) []Point {
	t.Helper()
	var pts []Point
	for _, suite := range [][]*kernels.Instance{kernels.PaperSuite(), kernels.SmallSuite()} {
		for _, breakdown := range []bool{false, true} {
			pts = append(pts, campaignPlan(t, suite, breakdown)...)
		}
	}
	return pts
}

// clusterKey identifies the cluster shape. Target features and timing are
// spelled out (not just the name) so an ablated variant can never alias
// the full configuration; observation adds a marker, since it changes the
// cached payload.
func clusterKey(cfg cluster.Config) string {
	k := fmt.Sprintf("cores=%d|tgt=%s%+v%+v|tcdm=%d/%d|l2=%d|ic=%d/%d|l2lat=%d",
		cfg.Cores, cfg.Target.Name, cfg.Target.Feat, cfg.Target.Time,
		cfg.TCDMSize, cfg.TCDMBanks, cfg.L2Size, cfg.ICacheSize, cfg.ICacheLine,
		cfg.L2Latency)
	if cfg.Observe {
		k += "|obs"
	}
	return k
}

// contentKey names everything a point's simulation reads: the kernel and
// its input, the program image, the cluster shape, the runtime mode, the
// team size and the cycle bound.
func contentKey(p Point) (string, error) {
	sim, err := p.Spec.resolve()
	if err != nil {
		return "", err
	}
	prog, err := p.k.Build(sim.cfg.Target, sim.mode)
	if err != nil {
		return "", err
	}
	img, err := kernels.HashProgram(prog)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|prog=%s|%s|mode=%d|threads=%d|max=%d",
		kernelKey(p.k, p.k.Input(p.Spec.Seed)), img, clusterKey(sim.cfg), sim.mode, sim.threads, uint64(measureMaxCycles)), nil
}

// treeFingerprint computes the model fingerprint of the tree: the sha256
// of the two campaign goldens, of the chaos drill golden (the one golden
// that injects faults) and of the sorted set of content keys of every
// campaign point.
func treeFingerprint(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, path := range []string{
		filepath.Join("testdata", "small_campaign.golden"),
		filepath.Join("testdata", "full_reproduction.golden"),
		filepath.Join("..", "chaos", "testdata", "drill.golden"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(b))
		h.Write(b)
	}
	var keys []string
	for _, p := range campaignPlans(t) {
		ck, err := contentKey(p)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ck)
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSpecKeyMatchesSprintf pins the appended spec key to the fmt.Sprintf
// form it replaced, for every point of the full and small campaigns and
// both observation flags, and once more at the largest seed: a changed
// key would send every cache cold.
func TestSpecKeyMatchesSprintf(t *testing.T) {
	pts := campaignPlans(t)
	for _, p := range pts {
		sim, err := p.Spec.resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{p.Spec.Seed, math.MaxUint64} {
			s := p.Spec
			s.Seed = seed
			for _, observe := range []bool{false, true} {
				want := fmt.Sprintf("%s|kernel=%s(%s)|seed=%d|cfg=%s|variant=%s|banks=%d|threads=%d|obs=%t|model=%s",
					sim.prefix, p.k.Name, p.k.ParamDesc, s.Seed, s.Config, s.Variant, s.Banks, s.Threads, observe, ModelFingerprint())
				if got := specKey(sim.prefix, p.k, s, observe); got != want {
					t.Fatalf("specKey = %q, want %q", got, want)
				}
			}
		}
	}
	if len(pts) == 0 {
		t.Fatal("no campaign points")
	}
}

// TestSpecKeysDoNotAlias checks that a spec key names one simulation
// across the full and small campaigns, with and without the breakdown:
// equal spec keys have equal content keys, and no key is shared by two
// studies (each study's payload differs, and the cold gate of a replica
// that runs the studies as separate sweeps counts them apart).
func TestSpecKeysDoNotAlias(t *testing.T) {
	content := map[string]string{}
	study := map[string]string{}
	for _, p := range campaignPlans(t) {
		job, err := p.job(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := contentKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := content[job.Key]; ok && prev != ck {
			t.Fatalf("spec key %q names two simulations:\n%s\n%s", job.Key, prev, ck)
		}
		if prev, ok := study[job.Key]; ok && prev != p.Spec.Study {
			t.Fatalf("spec key %q is shared by studies %q and %q", job.Key, prev, p.Spec.Study)
		}
		content[job.Key], study[job.Key] = ck, p.Spec.Study
	}
	// 135 points per plan; the breakdown adds one observed pulp4 point
	// per kernel and both suites have ten kernels.
	if want := 2 * (135 + 10); len(content) != want {
		t.Errorf("%d distinct spec keys, want %d", len(content), want)
	}
}

// TestWarmCampaignBuildsNothing checks that a campaign on a filled cache
// touches only the cache and what composition needs: no job runs, no
// program reaches the compile memo, inputs are generated only for the
// composed kernels, each offloaded image is serialized once, and the
// output is byte-identical to the cold run's.
func TestWarmCampaignBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	render := func() ([]byte, sweep.Stats) {
		c, err := sweep.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := sweep.New(sweep.Config{Workers: 2, Cache: c})
		var buf bytes.Buffer
		if err := RenderCampaign(&buf, LocalRunner(eng), kernels.SmallSuite(), CampaignOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), eng.Stats()
	}
	_, enc0 := kernels.ArtifactStats()
	cold, _ := render()
	_, _, hits0, misses0 := kernels.CompileStats()
	in1, enc1 := kernels.ArtifactStats()
	warm, st := render()
	_, _, hits1, misses1 := kernels.CompileStats()
	in2, enc2 := kernels.ArtifactStats()
	if memo := hits1 + misses1 - hits0 - misses0; memo != 0 {
		t.Errorf("warm campaign asked the compile memo %d times, want 0", memo)
	}
	// Composition offloads two programs: matmul's (the link ablation and
	// Fig. 5b) and hog's (the sensor ablation).
	const composed = 2
	if n := in2 - in1; n > composed {
		t.Errorf("warm campaign generated %d inputs, want at most %d (the composed kernels')", n, composed)
	}
	// Nothing is serialized cold or warm: the measured binary size and
	// every composed offload take it from the program (asm.Program.Size);
	// only a simulated offload encodes, and the campaign runs none.
	if cold, warm := enc1-enc0, enc2-enc1; cold+warm != 0 {
		t.Errorf("campaign encoded %d images cold and %d warm, want 0", cold, warm)
	}
	if st.Executed != 0 || st.CacheHits != st.Jobs {
		t.Errorf("warm campaign stats %+v, want every job a cache hit", st)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("warm campaign output differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s", warm, cold)
	}
}
