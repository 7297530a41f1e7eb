package typedlint

import (
	"fmt"
	"strings"
)

// determinism: no wall-clock (time) or global-PRNG (math/rand) import in
// non-test code — simulated time comes from sim.Engine and randomness
// from the seeded internal/sim generator, so every run is replayable. The
// analyzer checks the import path of every ImportSpec, so aliased
// (`import t "time"`), dot and blank imports are all caught — the name an
// importer binds is irrelevant to what the package does.
var bannedImports = map[string]string{
	"time":         "wall-clock time breaks replayability; simulated time comes from sim.Engine.Now",
	"math/rand":    "the global PRNG breaks replayability; use the seeded generator in internal/sim",
	"math/rand/v2": "the global PRNG breaks replayability; use the seeded generator in internal/sim",
}

func checkDeterminism(ctx *modCtx) []Finding {
	var out []Finding
	for _, p := range ctx.pkgs {
		for i, f := range p.Files {
			rel := p.FileNames[i]
			if !inDeterminismScope(rel) {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				why, ok := bannedImports[path]
				if !ok {
					continue
				}
				form := "import"
				switch {
				case imp.Name == nil:
				case imp.Name.Name == ".":
					form = "dot-import"
				case imp.Name.Name == "_":
					form = "blank import"
				default:
					form = fmt.Sprintf("aliased import (as %q)", imp.Name.Name)
				}
				out = append(out, Finding{
					File: rel, Line: ctx.m.Fset.Position(imp.Pos()).Line,
					Analyzer: "determinism",
					Msg:      fmt.Sprintf("%s of %q: %s", form, path, why),
				})
			}
		}
	}
	return out
}
