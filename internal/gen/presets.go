package gen

import (
	"fmt"
	"sort"
	"strings"
)

// Preset describes a synthetic stand-in for one of the paper's Table I
// datasets. RefNodes/RefEdges are the reference statistics from the paper;
// the generator is calibrated so that at Scale=1 the generated graph
// approximates them.
type Preset struct {
	// Key is the lookup name ("facebook", "slashdot", "twitter", "dblp").
	Key string
	// Kind matches the Table I "Kind" column.
	Kind string
	// RefNodes and RefEdges are the paper's reported statistics.
	RefNodes int
	RefEdges int
	// factory builds the generator for a given (scaled) node count.
	factory func(n int) Generator
}

// Generator returns the calibrated generator at the given scale factor in
// (0, 1]. Scale shrinks the node count; densities are preserved so degree
// structure stays comparable.
func (p Preset) Generator(scale float64) (Generator, error) {
	if !(scale > 0 && scale <= 1) { // also rejects NaN
		return nil, fmt.Errorf("%w: scale %v not in (0, 1]", ErrBadParam, scale)
	}
	n := int(float64(p.RefNodes) * scale)
	if n < 64 {
		n = 64
	}
	return p.factory(n), nil
}

// presets is the registry of Table I stand-ins.
//
// Calibration notes (verified by TestPresetCalibration):
//   - facebook: 4k nodes / 88k edges, few extreme hubs, high clustering →
//     Holme–Kim with mAttach=22 gives mean degree ≈ 44 and strong triads.
//   - slashdot: 77k / 905k, heavy tail → erased power-law configuration
//     model, gamma 2.1, degrees in [5, 2500], mean ≈ 23.
//   - twitter: 81k / 1.77M, heavier tail and denser → gamma 2.0,
//     degrees in [7, 3000], mean ≈ 43.
//   - dblp: 317k / 1.05M collaboration graph, mean degree ≈ 6.6, strong
//     communities, many medium-degree "prolific author" nodes →
//     planted-community collaboration model.
var presets = map[string]Preset{
	"facebook": {
		Key: "facebook", Kind: "Social", RefNodes: 4039, RefEdges: 88234,
		factory: func(n int) Generator {
			return HolmeKim{N: n, MAttach: 22, PTriad: 0.8}
		},
	},
	"slashdot": {
		Key: "slashdot", Kind: "Social", RefNodes: 77360, RefEdges: 905468,
		factory: func(n int) Generator {
			return PowerLawConfig{N: n, MinDeg: 5, MaxDeg: maxDegFor(n, 2500), Gamma: 2.1}
		},
	},
	"twitter": {
		Key: "twitter", Kind: "Social", RefNodes: 81306, RefEdges: 1768149,
		factory: func(n int) Generator {
			return PowerLawConfig{N: n, MinDeg: 7, MaxDeg: maxDegFor(n, 3000), Gamma: 2.0}
		},
	},
	"dblp": {
		Key: "dblp", Kind: "Collaboration", RefNodes: 317080, RefEdges: 1049866,
		factory: func(n int) Generator {
			return Collaboration{N: n, MeanCommunity: 14, PIntra: 0.85, PBridge: 0.35}
		},
	},
}

// maxDegFor caps the configuration-model degree cutoff below the node
// count so that scaled-down presets remain generable.
func maxDegFor(n, want int) int {
	if want >= n {
		return n - 1
	}
	return want
}

// PresetByName looks up a Table I preset by key (case-insensitive).
func PresetByName(name string) (Preset, error) {
	p, ok := presets[strings.ToLower(name)]
	if !ok {
		return Preset{}, fmt.Errorf("gen: unknown preset %q (have %v)", name, PresetNames())
	}
	return p, nil
}

// PresetNames lists all preset keys in a stable order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for k := range presets {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
