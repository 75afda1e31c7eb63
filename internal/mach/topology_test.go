package mach

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"platinum/internal/sim"
)

// topoTestMachine builds a machine from a topology, failing the test on
// validation errors.
func topoTestMachine(t *testing.T, topo *Topology) *Machine {
	t.Helper()
	m, err := FromTopology(sim.NewEngine(), topo)
	if err != nil {
		t.Fatalf("FromTopology: %v", err)
	}
	return m
}

// TestBuiltinTopologiesAreUniform pins the byte-identity contract: the
// built-in topologies carry exactly the historical Config constants and
// set none of the optional generalizations, so every multiplier the
// cost code applies is DistScale.
func TestBuiltinTopologiesAreUniform(t *testing.T) {
	if got, want := ButterflyPlus().Base, DefaultConfig(); got != want {
		t.Errorf("ButterflyPlus().Base = %+v, want DefaultConfig %+v", got, want)
	}
	if got, want := Butterfly1().Base, Butterfly1Config(); got != want {
		t.Errorf("Butterfly1().Base = %+v, want Butterfly1Config %+v", got, want)
	}
	for _, topo := range []*Topology{ButterflyPlus(), Butterfly1(), UniformTopology(DefaultConfig())} {
		if topo.Distance != nil || topo.Levels != nil || topo.Tiers != nil {
			t.Errorf("topology %q sets a generalization; built-ins must be uniform", topo.Name)
		}
		m := topoTestMachine(t, topo)
		if d := topo.DistanceMul(0, topo.Nodes()-1); d != DistScale {
			t.Errorf("topology %q DistanceMul = %d, want %d", topo.Name, d, DistScale)
		}
		if tier := topo.TierOf(0); tier != (MemTier{}) {
			t.Errorf("topology %q node 0 tier %+v is not base DRAM", topo.Name, tier)
		}
		if got := m.InterruptDispatchTo(0, topo.Nodes()-1); got != topo.Base.InterruptDispatch {
			t.Errorf("topology %q InterruptDispatchTo = %v, want %v", topo.Name, got, topo.Base.InterruptDispatch)
		}
	}
}

// TestIdentityTopologyChargesBaseConfig pins the identity the single
// cost path relies on: a topology that spells every generalization out
// at its identity value — an explicit all-DistScale distance matrix,
// 1000/1000 memory tiers, and a switch level with PerWord 0 — charges
// exactly what the bare-Config machine charges, on local and remote
// pairs alike, and places frames self first, then in index order.
func TestIdentityTopologyChargesBaseConfig(t *testing.T) {
	cfg := DefaultConfig()
	n := cfg.Nodes
	ident := &Topology{
		Base:     cfg,
		Distance: make([]int, n*n),
		Levels:   []SwitchLevel{{Domain: make([]int, n), PerWord: 0}},
		Tiers:    make([]MemTier, n),
	}
	for i := range ident.Distance {
		ident.Distance[i] = DistScale
	}
	for i := 0; i < n; i++ {
		ident.Levels[0].Domain[i] = i / 4
		ident.Tiers[i] = MemTier{Name: "dram", ReadMul: DistScale, WriteMul: DistScale}
	}

	// charges drives one fixed sequence of every cost entry point over
	// local and remote pairs, in both directions and both access kinds,
	// and returns every charge followed by the module statistics (which
	// carry the occupancy).
	charges := func(topo *Topology) []sim.Time {
		e := sim.NewEngine()
		m, err := FromTopology(e, topo)
		if err != nil {
			t.Fatalf("FromTopology: %v", err)
		}
		var out []sim.Time
		e.Spawn("p", func(th *sim.Thread) {
			for _, pair := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {3, 12}, {15, 15}} {
				p, mod := pair[0], pair[1]
				for _, write := range []bool{false, true} {
					out = append(out,
						m.Access(th, p, mod, 3, write),
						m.AccessFree(th.Now(), p, mod, 2, write),
						m.WordLatency(p, mod, 5, write))
				}
				out = append(out,
					m.BlockTransfer(th, mod, p, 64),
					m.BlockTransferAt(th.Now(), p, mod, 32),
					m.InterruptDispatchTo(p, mod))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, st := range m.Stats() {
			out = append(out, sim.Time(st.Accesses), sim.Time(st.Words), st.QueueWait, st.BusyTime)
		}
		return out
	}
	want, got := charges(UniformTopology(cfg)), charges(ident)
	if len(got) != len(want) {
		t.Fatalf("got %d charges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("charge %d = %v on the identity topology, %v on bare Config", i, got[i], want[i])
		}
	}

	m := topoTestMachine(t, ident)
	for p := 0; p < n; p++ {
		want := []int32{int32(p)}
		for i := 0; i < n; i++ {
			if i != p {
				want = append(want, int32(i))
			}
		}
		if got := m.PlaceOrder(p); !slices.Equal(got, want) {
			t.Errorf("PlaceOrder(%d) = %v, want %v", p, got, want)
		}
	}
}

// fourNode returns a valid 4-node topology with an explicit uniform
// distance matrix, for mutation by the rejection tests.
func fourNode() *Topology {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	topo := &Topology{Base: cfg, Distance: make([]int, 16)}
	for i := range topo.Distance {
		topo.Distance[i] = DistScale
	}
	return topo
}

// TestValidateRejects covers every structural rule in Topology.Validate.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string // substring of the expected error
	}{
		{"valid", func(topo *Topology) {}, ""},
		{"wrong matrix size", func(topo *Topology) { topo.Distance = topo.Distance[:15] }, "entries"},
		{"zero diagonal", func(topo *Topology) { topo.Distance[0] = 0 }, "diagonal"},
		{"negative entry", func(topo *Topology) { topo.Distance[1], topo.Distance[4] = -5, -5 }, "positive"},
		{"asymmetric", func(topo *Topology) { topo.Distance[1] = 2000 }, "asymmetric"},
		{"level wrong length", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0}}}
		}, "assigns 2 nodes"},
		{"level sparse domains", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, 2, 2}}}
		}, "dense"},
		{"level negative domain", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, -1, 0}}}
		}, "negative domain"},
		{"level domain too large", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 1, 2, 4}}}
		}, "must be <"},
		{"level negative per-word", func(topo *Topology) {
			topo.Levels = []SwitchLevel{{Domain: []int{0, 0, 1, 1}, PerWord: -1}}
		}, "negative PerWord"},
		{"tiers wrong length", func(topo *Topology) { topo.Tiers = make([]MemTier, 3) }, "tiers"},
		{"tier negative mul", func(topo *Topology) {
			topo.Tiers = make([]MemTier, 4)
			topo.Tiers[2] = MemTier{Name: "bad", ReadMul: -1}
		}, "negative multiplier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := fourNode()
			tc.mut(topo)
			err := topo.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted an invalid topology, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateRandomMatrices is the property test behind the symmetry
// rule: any positive symmetric matrix validates, and corrupting one
// off-diagonal entry (breaking symmetry) must be rejected.
func TestValidateRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(7)
		cfg := DefaultConfig()
		cfg.Nodes = n
		topo := &Topology{Base: cfg, Distance: make([]int, n*n)}
		for i := 0; i < n; i++ {
			topo.Distance[i*n+i] = DistScale
			for j := i + 1; j < n; j++ {
				d := 1 + rng.Intn(10_000)
				topo.Distance[i*n+j] = d
				topo.Distance[j*n+i] = d
			}
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("trial %d: symmetric matrix rejected: %v", trial, err)
		}
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		topo.Distance[i*n+j] += 1
		if err := topo.Validate(); err == nil {
			t.Fatalf("trial %d: asymmetric matrix (entry %d,%d bumped) accepted", trial, i, j)
		}
	}
}

// clusterTestTopology builds 2 clusters of 2 nodes with inter-cluster
// distance far.
func clusterTestTopology(far int) *Topology {
	topo := fourNode()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i/2 != j/2 {
				topo.Distance[i*4+j] = far
			}
		}
	}
	return topo
}

func TestPlaceOrder(t *testing.T) {
	// Uniform machine: the historical order — self first, then index.
	m := topoTestMachine(t, UniformTopology(DefaultConfig()))
	got := m.PlaceOrder(2)
	if got[0] != 2 || got[1] != 0 || got[2] != 1 || got[3] != 3 {
		t.Errorf("uniform PlaceOrder(2) = %v, want self-then-index order", got)
	}

	// Clustered machine: self, cluster mate, then the far cluster.
	m = topoTestMachine(t, clusterTestTopology(3000))
	if got := m.PlaceOrder(1); got[0] != 1 || got[1] != 0 || got[2] != 2 || got[3] != 3 {
		t.Errorf("clustered PlaceOrder(1) = %v, want [1 0 2 3]", got)
	}

	// Tiered machine: at equal distance, DRAM beats the slow tier.
	topo := fourNode()
	topo.Tiers = []MemTier{{}, {Name: "nvm", ReadMul: 3000}, {}, {}}
	m = topoTestMachine(t, topo)
	if got := m.PlaceOrder(0); got[0] != 0 || got[1] != 2 || got[2] != 3 || got[3] != 1 {
		t.Errorf("tiered PlaceOrder(0) = %v, want NVM node last", got)
	}
}

func TestInterruptDispatchScaling(t *testing.T) {
	topo := clusterTestTopology(4000)
	m := topoTestMachine(t, topo)
	base := topo.Base.InterruptDispatch
	if got := m.InterruptDispatchTo(0, 1); got != base {
		t.Errorf("near dispatch = %v, want base %v", got, base)
	}
	if got, want := m.InterruptDispatchTo(0, 3), base*4; got != want {
		t.Errorf("far dispatch = %v, want %v", got, want)
	}
}

// badTopologies are malformed loader inputs, each with a substring of
// the error it must produce. "trailing garbage" was once accepted (only
// trailing JSON values were caught), and the last three crashed the
// loader before it bounded the node count: negative counts reached
// make, and 2^32 overflowed n*n. FuzzParseTopology seeds from the whole
// table.
var badTopologies = []struct {
	name, src, want string
}{
	{"unknown field", `{"nodse": 4}`, "unknown field"},
	{"trailing data", `{"nodes": 4} {"nodes": 8}`, "trailing data"},
	{"trailing garbage", `{"nodes": 4} xyz`, "trailing data"},
	{"unknown base", `{"base": "hypercube"}`, "unknown base"},
	{"unknown distance kind", `{"distance": {"kind": "torus"}}`, "unknown distance kind"},
	{"clusters without far", `{"nodes": 4, "distance": {"kind": "clusters", "cluster_size": 2}}`, "far"},
	{"cluster size mismatch", `{"nodes": 6, "distance": {"kind": "clusters", "cluster_size": 4, "far": 2000}}`, "does not divide"},
	{"matrix wrong rows", `{"nodes": 3, "distance": {"kind": "matrix", "rows": [[1000]]}}`, "rows"},
	{"asymmetric matrix", `{"nodes": 2, "distance": {"kind": "matrix", "rows": [[1000, 2000], [3000, 1000]]}}`, "asymmetric"},
	{"zero diagonal", `{"nodes": 2, "distance": {"kind": "matrix", "rows": [[0, 2000], [2000, 0]]}}`, "diagonal"},
	{"level both selectors", `{"nodes": 4, "switch_levels": [{"cluster_size": 2, "domain_of": [0, 0, 1, 1]}]}`, "both"},
	{"level no selector", `{"nodes": 4, "switch_levels": [{"per_word_ns": 10}]}`, "needs cluster_size or domain_of"},
	{"tier overlap", `{"nodes": 2, "tiers": [{"name": "a", "nodes": [0]}, {"name": "b", "nodes": [0]}]}`, "two tiers"},
	{"tier node out of range", `{"nodes": 2, "tiers": [{"name": "a", "nodes": [7]}]}`, "machine has"},
	{"tier empty", `{"nodes": 2, "tiers": [{"name": "a"}]}`, "lists no nodes"},
	{"negative nodes with tiers", `{"nodes": -4, "tiers": [{"name": "nvm", "nodes": [0], "read_mul": 3000}]}`, "mach: topology: nodes = -4"},
	{"negative nodes with switch level", `{"nodes": -4, "switch_levels": [{"cluster_size": 2, "per_word_ns": 50}]}`, "mach: topology: nodes = -4"},
	{"node count overflows n squared", `{"nodes": 4294967296, "distance": {"kind": "clusters", "cluster_size": 1, "far": 2000}}`, "mach: topology: nodes = 4294967296"},
}

// TestParseTopology exercises the JSON loader: each shorthand expands
// correctly and every malformed input is rejected.
func TestParseTopology(t *testing.T) {
	t.Run("clusters", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{
			"name": "c", "nodes": 4, "page_words": 256,
			"distance": {"kind": "clusters", "cluster_size": 2, "far": 3000},
			"switch_levels": [{"cluster_size": 2, "per_word_ns": 50}]
		}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if topo.Nodes() != 4 || topo.Base.PageWords != 256 {
			t.Errorf("base = %+v, want 4 nodes, 256-word pages", topo.Base)
		}
		if got := topo.DistanceMul(0, 1); got != DistScale {
			t.Errorf("intra-cluster distance = %d, want %d", got, DistScale)
		}
		if got := topo.DistanceMul(0, 2); got != 3000 {
			t.Errorf("inter-cluster distance = %d, want 3000", got)
		}
		if len(topo.Levels) != 1 || topo.Levels[0].PerWord != 50*sim.Nanosecond {
			t.Errorf("levels = %+v, want one 50 ns level", topo.Levels)
		}
		if want := []int{0, 0, 1, 1}; len(topo.Levels) == 1 {
			for i, d := range topo.Levels[0].Domain {
				if d != want[i] {
					t.Errorf("domain = %v, want %v", topo.Levels[0].Domain, want)
					break
				}
			}
		}
	})

	t.Run("matrix and tiers", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{
			"nodes": 2,
			"distance": {"kind": "matrix", "rows": [[1000, 2000], [2000, 1000]]},
			"tiers": [{"name": "nvm", "nodes": [1], "read_mul": 3000, "write_mul": 8000}]
		}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if got := topo.DistanceMul(1, 0); got != 2000 {
			t.Errorf("matrix distance = %d, want 2000", got)
		}
		if tier := topo.TierOf(1); tier.Name != "nvm" || tier.ReadMul != 3000 || tier.WriteMul != 8000 {
			t.Errorf("tier = %+v, want nvm 3000/8000", tier)
		}
		if tier := topo.TierOf(0); tier != (MemTier{}) {
			t.Errorf("unlisted node tier = %+v, want base DRAM", tier)
		}
	})

	t.Run("base presets", func(t *testing.T) {
		topo, err := ParseTopology([]byte(`{"base": "butterfly-1"}`))
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		if topo.Base != Butterfly1Config() {
			t.Errorf("base = %+v, want Butterfly1Config", topo.Base)
		}
	})

	for _, tc := range badTopologies {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseTopology accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestLoadExampleTopologies keeps the shipped example files loadable by
// the real loader.
func TestLoadExampleTopologies(t *testing.T) {
	for _, f := range []string{"butterfly-plus.json", "cluster-64.json", "hybrid-nvm.json"} {
		topo, err := LoadTopology("../../examples/topologies/" + f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := FromTopology(sim.NewEngine(), topo); err != nil {
			t.Errorf("%s: FromTopology: %v", f, err)
		}
	}
}

// FuzzParseTopology feeds the loader arbitrary bytes: it must never
// panic, and any topology it accepts must re-validate and boot. The
// seeds are the shipped examples and every malformed input of
// badTopologies; tier-1 runs them, scripts/check-topo.sh fuzzes beyond.
func FuzzParseTopology(f *testing.F) {
	examples, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example topologies: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range badTopologies {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep iterations fast: skip in-range counts above 256, whose
		// n² distance tables dominate the time. Out-of-range counts
		// still go through; the loader must reject them unallocated.
		var probe struct {
			Nodes int `json:"nodes"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.Nodes > 256 && probe.Nodes <= MaxNodes {
			t.Skip()
		}
		topo, err := ParseTopology(data)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted topology fails Validate: %v", err)
		}
		if _, err := FromTopology(sim.NewEngine(), topo); err != nil {
			t.Fatalf("accepted topology does not boot: %v", err)
		}
	})
}
