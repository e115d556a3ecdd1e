// Package simprocess implements ksrlint/simprocess: code that runs
// inside the simulated machine may only advance by engine-mediated
// park/resume (Process.Sleep, Resource acquire, Cond wait). Spawning a
// raw goroutine breaks the single-control-token discipline (the engine
// runs exactly one process coroutine at a time, which is what makes runs
// reproducible and data-race-free by construction), and real-clock
// waits stall the host thread without advancing simulated time.
//
// The sweep layer (internal/experiments) is host-side orchestration and
// is exempt; the reaper goroutine in Engine.Shutdown carries an
// explained //lint:ignore. Methods of the PDES coordinator (receiver
// type Partitioned) are the one sanctioned goroutine site inside the
// sim packages: its barrier-window protocol confines each worker to
// disjoint partitions and merges cross-partition events in a canonical
// order, so worker goroutines cannot perturb results. Real-clock waits
// stay forbidden there too.
package simprocess

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// simSegments mirror the determinism analyzer's scope minus
// "experiments": the sweep runner is host code and owns a worker pool.
var simSegments = []string{
	"sim", "fabric", "cache", "coherence", "machine", "memory",
	"ksync", "kernels", "faults",
}

// realClockWaits are time-package calls that wait on (or arm timers
// against) the host clock.
var realClockWaits = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "simprocess",
	Doc: "forbids raw goroutines and real-clock waits (time.Sleep, time.After, " +
		"timers) in sim-managed packages; only engine-mediated park/resume is legal " +
		"(exception: methods of the PDES coordinator type Partitioned, whose " +
		"barrier-window protocol makes worker goroutines order-safe)",
	Run: run,
}

// isPartitionedMethod reports whether decl is a method with receiver
// type Partitioned (or *Partitioned) — the PDES coordinator's carve-out.
func isPartitionedMethod(decl ast.Decl) bool {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "Partitioned"
}

func run(pass *analysis.Pass) error {
	if !analysis.HasAnySegment(pass.Pkg.Path(), simSegments...) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			goExempt := isPartitionedMethod(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if goExempt {
						return true
					}
					pass.Reportf(n.Pos(),
						"go statement in a sim-managed package bypasses the engine's single-control-token discipline; use Engine.Spawn")
				case *ast.CallExpr:
					fn, ok := analysis.Callee(pass.TypesInfo, n).(*types.Func)
					if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && realClockWaits[fn.Name()] {
						pass.Reportf(n.Pos(),
							"time.%s waits on the host clock inside sim-managed code; use Process.Sleep with a sim.Time duration",
							fn.Name())
					}
				}
				return true
			})
		}
	}
	return nil
}
