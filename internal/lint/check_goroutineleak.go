package lint

import "strings"

// checkGoroutineLeak flags goroutine spawn sites whose spawned function can
// reach an endless loop (for {} with no escaping statement, or for-range
// over a never-closing time channel) with no way out: no return, no break,
// no panic anywhere in the loop. Canon's liveness arguments (proxy
// convergence, stabilization repair) assume maintenance goroutines are
// either running usefully or stopped deliberately; a loop that cannot exit
// outlives its node, keeps the old routing state alive, and — under churn
// experiments that create thousands of nodes — accumulates into real leaks.
//
// The stop-signal rule is syntactic and deliberately strict: a loop that
// *selects* on ctx.Done()/a stop channel but never leaves the loop is still
// reported (receiving a signal and ignoring it stops nothing); the fix is a
// `return` in the stop case, which makes the loop escape and the finding
// disappear. Spawn sites in _test.go files are exempt (test goroutines die
// with the process).
var checkGoroutineLeak = Check{
	Name:      "goroutineleak",
	Doc:       "goroutines that can reach an endless loop with no reachable stop path (leak class)",
	RunModule: runGoroutineLeak,
}

func runGoroutineLeak(mp *ModulePass) {
	inModule := func(pkg string) bool {
		return pkg == mp.Cfg.ModulePath || strings.HasPrefix(pkg, mp.Cfg.ModulePath+"/")
	}
	for _, n := range mp.Graph.SortedNodes() {
		for _, e := range n.Out {
			if e.Kind != EdgeGo {
				continue
			}
			if n.InTestFile || !inModule(n.Pkg) {
				continue
			}
			s := e.Callee
			if !s.EndlessLoop && !s.Sum.ReachesEndless {
				continue
			}
			var loop *FuncNode // the function that loops: the chain's last frame
			chain := mp.Graph.Chain(s, summaryKinds, func(fn *FuncNode) bool {
				if fn.EndlessLoop {
					loop = fn
				}
				return fn.EndlessLoop
			})
			if len(chain) == 0 {
				continue // endless loop only via non-synchronous edges; skip
			}
			note := " (add a ctx/done-channel case that returns, and a Close path that signals it)"
			if loop.StopsOnSignal {
				note = " (it receives a stop signal but never leaves the loop — return in the stop case)"
			}
			fullChain := append([]string{mp.Graph.frame(n, e.Pos)}, chain...)
			mp.Report(e.Pos, fullChain,
				"goroutine spawned here runs an endless loop in %s with no reachable stop path%s",
				loop.Name, note)
		}
	}
}
