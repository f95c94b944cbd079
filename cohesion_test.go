package cohesion

import (
	"strings"
	"testing"
)

// Small parameters keep the shape tests fast while preserving the
// qualitative claims under test.
func tiny(kernels ...string) ExpParams {
	return ExpParams{Clusters: 4, Workers: 8, Scale: 2, Kernels: kernels, Seed: 7}
}

func TestRunVerifiesEveryKernelCohesion(t *testing.T) {
	for _, k := range KernelNames() {
		k := k
		t.Run(k, func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{
				Machine: ScaledConfig(2).WithMode(Cohesion),
				Kernel:  k,
				Scale:   1,
				Verify:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles() == 0 || res.TotalMessages() == 0 {
				t.Fatal("empty result")
			}
		})
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(RunConfig{Machine: ScaledConfig(2), Kernel: "nope"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Run(RunConfig{Machine: ScaledConfig(2), Kernel: "heat", Workers: 1000}); err == nil {
		t.Fatal("impossible worker count accepted")
	}
	bad := ScaledConfig(2)
	bad.Clusters = 0
	if _, err := Run(RunConfig{Machine: bad, Kernel: "heat"}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	rows, err := Fig2(tiny("heat", "kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	rel := map[string]map[string]float64{}
	for _, r := range rows {
		if rel[r.Kernel] == nil {
			rel[r.Kernel] = map[string]float64{}
		}
		rel[r.Kernel][r.Config] = r.Relative
	}
	// heat: hardware coherence costs significantly more messages.
	if rel["heat"]["HWcc"] < 1.1 {
		t.Fatalf("heat HWcc relative = %.2f, want > 1.1", rel["heat"]["HWcc"])
	}
	// kmeans: atomics dominate, so the two are close (the paper's
	// exception).
	if r := rel["kmeans"]["HWcc"]; r < 0.8 || r > 1.2 {
		t.Fatalf("kmeans HWcc relative = %.2f, want ~1.0", r)
	}
	// SWcc rows must show flushes and no probe responses; HWcc the reverse.
	for _, r := range rows {
		if r.Config == "SWcc" && r.Counts[MsgProbeResp] != 0 {
			t.Fatal("SWcc produced probe responses")
		}
		if r.Config == "HWcc" && r.Counts[MsgSWFlush] != 0 {
			t.Fatal("HWcc produced software flushes")
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := Fig3(ExpParams{Clusters: 4, Workers: 8, Scale: 3, Kernels: []string{"heat"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5 L2 sizes", len(rows))
	}
	// Usefulness must not decrease as the L2 grows, and must span a real
	// range (small caches waste coherence instructions).
	for i := 1; i < len(rows); i++ {
		if rows[i].UsefulInv+0.05 < rows[i-1].UsefulInv {
			t.Fatalf("useful-inv fell from %.3f to %.3f as L2 grew", rows[i-1].UsefulInv, rows[i].UsefulInv)
		}
	}
	if rows[len(rows)-1].UsefulInv <= rows[0].UsefulInv {
		t.Fatalf("useful-inv flat across L2 sizes: %.3f vs %.3f", rows[0].UsefulInv, rows[len(rows)-1].UsefulInv)
	}
	for _, r := range rows {
		if r.UsefulInv < 0 || r.UsefulInv > 1 || r.UsefulWB < 0 || r.UsefulWB > 1 {
			t.Fatalf("fractions out of range: %+v", r)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(tiny("heat", "kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	rel := map[string]map[string]float64{}
	for _, r := range rows {
		if rel[r.Kernel] == nil {
			rel[r.Kernel] = map[string]float64{}
		}
		rel[r.Kernel][r.Config] = r.Relative
	}
	// Cohesion sits at or below HWcc for heat...
	if rel["heat"]["Cohesion"] > rel["heat"]["HWccIdeal"] {
		t.Fatalf("heat: Cohesion (%.2f) above HWccIdeal (%.2f)", rel["heat"]["Cohesion"], rel["heat"]["HWccIdeal"])
	}
	// ...and kmeans is the one kernel where Cohesion beats SWcc (§4.2).
	if rel["kmeans"]["Cohesion"] >= 1.0 {
		t.Fatalf("kmeans: Cohesion relative = %.2f, want < 1 (the paper's exception)", rel["kmeans"]["Cohesion"])
	}
}

func TestFig9SweepShape(t *testing.T) {
	p := tiny("sobel")
	p.Scale = 3
	p.DirSizes = []int{16, 512}
	hw, err := Fig9Sweep(p, HWcc)
	if err != nil {
		t.Fatal(err)
	}
	coh, err := Fig9Sweep(p, Cohesion)
	if err != nil {
		t.Fatal(err)
	}
	find := func(pts []DirSweepPoint, entries int) float64 {
		for _, pt := range pts {
			if pt.EntriesPerBank == entries {
				return pt.Slowdown
			}
		}
		t.Fatalf("missing sweep point %d", entries)
		return 0
	}
	// HWcc: precipitous falloff at tiny directories (paper Fig 9a).
	if find(hw, 16) < 1.5 {
		t.Fatalf("HWcc slowdown at 16 entries = %.2f, want precipitous", find(hw, 16))
	}
	if find(hw, 16) <= find(hw, 512) {
		t.Fatal("HWcc slowdown not monotone with pressure")
	}
	// Cohesion: robust to directory sizing (paper Fig 9b).
	if s := find(coh, 16); s > 1.25 {
		t.Fatalf("Cohesion slowdown at 16 entries = %.2f, want flat", s)
	}
	if _, err := Fig9Sweep(p, SWcc); err == nil {
		t.Fatal("Fig9Sweep accepted SWcc")
	}
}

func TestFig9cShape(t *testing.T) {
	rows, err := Fig9c(tiny("heat", "cg"))
	if err != nil {
		t.Fatal(err)
	}
	byKC := map[string]OccupancyRow{}
	for _, r := range rows {
		byKC[r.Kernel+"/"+r.Config] = r
	}
	for _, k := range []string{"heat", "cg"} {
		hw, coh := byKC[k+"/HWcc"], byKC[k+"/Cohesion"]
		if hw.MeanTotal <= coh.MeanTotal {
			t.Fatalf("%s: HWcc occupancy (%.0f) not above Cohesion (%.0f)", k, hw.MeanTotal, coh.MeanTotal)
		}
		if hw.MaxTotal < uint64(hw.MeanTotal) {
			t.Fatalf("%s: max below mean", k)
		}
		// Under Cohesion stacks and code live in coarse SWcc regions.
		if coh.MeanStack != 0 || coh.MeanCode != 0 {
			t.Fatalf("%s: Cohesion tracks stack/code lines (%f/%f)", k, coh.MeanStack, coh.MeanCode)
		}
		// Under HWcc the stack is tracked.
		if hw.MeanStack == 0 {
			t.Fatalf("%s: HWcc stack entries missing", k)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows, err := Fig10(tiny("heat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 configurations", len(rows))
	}
	byCfg := map[string]RuntimeRow{}
	for _, r := range rows {
		byCfg[r.Config] = r
	}
	if byCfg["Cohesion"].Normalized != 1.0 {
		t.Fatal("normalization base wrong")
	}
	// Cohesion must be competitive with the optimistic bound (paper: within
	// a few percent for most kernels; allow slack at this tiny scale).
	if n := byCfg["Cohesion"].Cycles; float64(n) > 1.5*float64(byCfg["HWccOpt"].Cycles) {
		t.Fatalf("Cohesion (%d cycles) far above HWccOpt (%d)", n, byCfg["HWccOpt"].Cycles)
	}
	for _, r := range rows {
		if r.Cycles == 0 || r.Normalized <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

func TestAreaEstimates(t *testing.T) {
	rows := AreaEstimates()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(rows[0].Scheme, "full-map") {
		t.Fatalf("unexpected first scheme %q", rows[0].Scheme)
	}
	// The §4.4 ordering: full-map > Dir4B > one duplicate-tag replica.
	if !(rows[0].Bytes > rows[1].Bytes && rows[1].Bytes > rows[2].Bytes) {
		t.Fatal("area ordering wrong")
	}
}

func TestHeadlineSummary(t *testing.T) {
	s, err := HeadlineSummary(tiny("heat", "kmeans", "cg"))
	if err != nil {
		t.Fatal(err)
	}
	if s.MessageReduction <= 1.0 {
		t.Fatalf("message reduction %.2f, want > 1 (paper: ~2x)", s.MessageReduction)
	}
	if s.DirectoryReduction <= 1.5 {
		t.Fatalf("directory reduction %.2f, want > 1.5 (paper: ~2.1x)", s.DirectoryReduction)
	}
}

func TestBreakdownTableRendering(t *testing.T) {
	rows := []MessageBreakdown{{Kernel: "heat", Config: "SWcc", Total: 10, Relative: 1}}
	s := BreakdownTable(rows).String()
	if !strings.Contains(s, "heat") || !strings.Contains(s, "Read Requests") {
		t.Fatalf("table missing content:\n%s", s)
	}
}

func TestCSVRenderers(t *testing.T) {
	br := BreakdownCSV([]MessageBreakdown{{Kernel: "heat", Config: "SWcc", Total: 5, Relative: 1}})
	if !strings.HasPrefix(br, "kernel,config,total,relative,read_requests") || !strings.Contains(br, "heat,SWcc,5,1.0000") {
		t.Fatalf("BreakdownCSV:\n%s", br)
	}
	fe := FlushEfficiencyCSV([]FlushEfficiency{{Kernel: "cg", L2KB: 8, UsefulInv: 0.5, UsefulWB: 1}})
	if !strings.Contains(fe, "cg,8,0.5000,1.0000") {
		t.Fatalf("FlushEfficiencyCSV:\n%s", fe)
	}
	ds := DirSweepCSV([]DirSweepPoint{{Kernel: "sobel", EntriesPerBank: 32, Cycles: 10, Slowdown: 2.5}})
	if !strings.Contains(ds, "sobel,32,10,2.5000") {
		t.Fatalf("DirSweepCSV:\n%s", ds)
	}
	oc := OccupancyCSV([]OccupancyRow{{Kernel: "cg", Config: "HWcc", MeanTotal: 10.5, MaxTotal: 20}})
	if !strings.Contains(oc, "cg,HWcc,10.50,0.00,0.00,0.00,20") {
		t.Fatalf("OccupancyCSV:\n%s", oc)
	}
	rt := RuntimeCSV([]RuntimeRow{{Kernel: "mri", Config: "SWcc", Cycles: 7, Normalized: 0.9}})
	if !strings.Contains(rt, "mri,SWcc,7,0.9000") {
		t.Fatalf("RuntimeCSV:\n%s", rt)
	}
}

func TestScalingStudyShape(t *testing.T) {
	rows, err := ScalingStudy("heat", []int{2, 8}, 7, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	get := func(cfg string, clusters int) ScalingPoint {
		for _, r := range rows {
			if r.Config == cfg && r.Clusters == clusters {
				return r
			}
		}
		t.Fatalf("missing %s@%d", cfg, clusters)
		return ScalingPoint{}
	}
	// The paper's motivation: the HWcc-to-SWcc message ratio widens as the
	// machine grows (hardware coherence scales worse).
	small := float64(get("HWcc", 2).Messages) / float64(get("SWcc", 2).Messages)
	large := float64(get("HWcc", 8).Messages) / float64(get("SWcc", 8).Messages)
	if large <= small {
		t.Fatalf("HWcc/SWcc message ratio did not widen: %.2f -> %.2f", small, large)
	}
	// Cohesion stays below HWcc at the large size.
	if get("Cohesion", 8).Messages >= get("HWcc", 8).Messages {
		t.Fatal("Cohesion messages not below HWcc at scale")
	}
	csv := ScalingCSV(rows)
	if !strings.HasPrefix(csv, "kernel,config,clusters") || !strings.Contains(csv, "heat,SWcc,2,16") {
		t.Fatalf("ScalingCSV:\n%s", csv)
	}
}

// TestTable3FullMachineBoot runs a small kernel on the paper's full
// 1024-core Table 3 configuration — 128 clusters, 32 banks, 8 channels —
// to prove the machinery works at full scale (64 worker cores keep the
// run short). Its fingerprint, cycles and messages are pinned: the 2,048
// L1 tag arrays and 32 L3 banks of this machine get no other check.
func TestTable3FullMachineBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine boot is slow")
	}
	res, err := Run(RunConfig{
		Machine: Table3Config().WithMode(Cohesion),
		Kernel:  "dmm",
		Scale:   2,
		Workers: 64,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Cores() != 1024 {
		t.Fatalf("cores = %d", res.Config.Cores())
	}
	if res.MemFingerprint != 0xfd41326dcb12fbf3 || res.Cycles() != 21701 || res.TotalMessages() != 7057 {
		t.Fatalf("fingerprint %#x, %d cycles, %d messages; want 0xfd41326dcb12fbf3, 21701, 7057",
			res.MemFingerprint, res.Cycles(), res.TotalMessages())
	}
}

func TestCoScheduleIsolationShape(t *testing.T) {
	mk := func(mode Mode) MachineConfig {
		cfg := ScaledConfig(4).WithMode(mode)
		cfg.L2Size = 8 << 10
		cfg.L3Size = cfg.L3Banks * (32 << 10)
		if mode != SWcc {
			cfg = cfg.WithDirectory(DirSparse, 128, 0)
		}
		return cfg
	}
	res, err := CoSchedule(mk(Cohesion), "heat", "sobel", 2, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesA == 0 || res.CyclesB == 0 {
		t.Fatal("empty co-schedule result")
	}
	if res.KernelA != "heat" || res.KernelB != "sobel" {
		t.Fatal("labels wrong")
	}
	// Both workloads' traffic lands in the one shared Stats.
	if res.Stats.TotalMessages() == 0 {
		t.Fatal("no traffic recorded")
	}
	if _, err := CoSchedule(ScaledConfig(1), "heat", "sobel", 1, 1, false); err == nil {
		t.Fatal("single-cluster co-schedule accepted")
	}
}
