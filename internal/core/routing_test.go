package core

import (
	"testing"

	"janus/internal/config"
	"janus/internal/gate"
	"janus/internal/topology"
)

// TestSparseRoutingCompletes runs one iteration over a seeded table of
// routings, dense and sparse, balanced and skewed, on the three
// 32-expert models. Sparse Zipf routing once deadlocked the
// PCIe-switch-aware split: two peers ranked their externals over their
// own lists, so an expert both needed could be a peer relay on both
// sides, each waiting on the other's arrival. Every routing therefore
// runs forced data-centric with that split on (Prefetch alternating),
// plus one more configuration that cycles through every combination of
// TopoAware, Prefetch and DisableCache under the nominal policy and both
// forced paradigms. Run's deadlock detector panics; the test does not
// recover, so a deadlock fails it.
func TestSparseRoutingCompletes(t *testing.T) {
	tokens := []int{1, 8, 32, 64, 128, 512}
	skews := []float64{0, 0.3, 1.0}
	if testing.Short() {
		tokens = []int{8, 32, 64}
		skews = []float64{1.0}
	}
	dc, ec := config.DataCentric, config.ExpertCentric
	paradigms := []*config.Paradigm{nil, &dc, &ec}
	models := []config.Model{config.MoEBERT(32), config.MoEGPT(32), config.MoETransformerXL(32)}
	spec := topology.DefaultSpec(4)
	workers := spec.NumMachines * spec.GPUsPerNode
	i := 0
	for _, model := range models {
		for _, tok := range tokens {
			for _, skew := range skews {
				seed := int64(7 + i)
				asg := gate.Zipf(workers, 32, tok, skew, seed)
				split := Config{ForceParadigm: &dc, TopoAware: true, Prefetch: i%2 == 0}
				flags := i % 8
				cycled := Config{ForceParadigm: paradigms[(i/8)%3],
					TopoAware: flags&1 != 0, Prefetch: flags&2 != 0, DisableCache: flags&4 != 0}
				for _, cfg := range []Config{split, cycled} {
					cfg.Model, cfg.Spec = model, spec
					cfg.Assignment = func(int) gate.Assignment { return asg }
					paradigm := "nominal"
					if cfg.ForceParadigm != nil {
						paradigm = cfg.ForceParadigm.String()
					}
					t.Logf("%s, %d tokens, skew %v, seed %d: %s, TopoAware %v, Prefetch %v, DisableCache %v",
						model.Name, tok, skew, seed, paradigm, cfg.TopoAware, cfg.Prefetch, cfg.DisableCache)
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
				}
				i++
			}
		}
	}
}
