package lint

import "go/ast"

// fitPathPackages are the packages on the training/fold-in path, where any
// wall-clock read makes behavior depend on scheduling and breaks the
// fitHash/checkpoint bit-identity contract: a resumed fit must replay the
// identical trajectory, so nothing in these packages may branch on time.
var fitPathPackages = []string{
	"internal/mat",
	"internal/core",
	"internal/landmark",
	"internal/linalg",
	"internal/spatial",
	"internal/kmeans",
	"internal/store",
	"internal/atomicfile", // checkpoint writes
}

// clockFuncs are the time package entry points that read or wait on the wall
// clock.
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Sleep": true,
	"After": true,
	"Tick":  true,
}

var checkNoClock = Check{
	Name: "noclock",
	Doc:  "fit-path packages must not read the wall clock (time.Now/Since/Sleep); it breaks checkpoint-resume bit-identity",
	run:  runNoClock,
}

func runNoClock(pass *Pass) {
	if !pathIn(pass.Pkg.Path, fitPathPackages) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := pkgCall(pass.Pkg.Info, call); ok && pkg == "time" && clockFuncs[name] {
				pass.Reportf(call, "move timing to the caller/bench layer, or gate behavior on iteration counts so resume replays identically",
					"time.%s in fit-path package %s", name, pass.Pkg.Path)
			}
			return true
		})
	}
}
