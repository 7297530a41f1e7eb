package experiments

import (
	"fmt"
	"sync"

	"shootdown/internal/report"
	"shootdown/internal/sanitizer"
	"shootdown/internal/workload"
)

// Run executes the named experiment from the registry with the
// shadow-oracle coherence checker attached to every machine the
// experiment boots, and returns the merged summary alongside the tables.
// The checker is installed as o.Env's boot hook, replacing any hook
// already there.
//
// The lazy-shootdown extension (core.Config.LazyRemote) is granted its
// designed staleness window: hits on CPUs with queued lazy work are legal
// for that machine (see sanitizer.Config.AllowLazyWindow).
func Run(name string, o Options) ([]*report.Table, *sanitizer.Summary, error) {
	runner, ok := Registry()[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	// Worlds boot concurrently under the parallel scheduler; the hook is
	// the one cross-world touch point, so the slice needs a lock. Merge is
	// an order-independent sum, so the summary stays deterministic.
	var mu sync.Mutex
	var checkers []*sanitizer.Checker
	o.Env.BootHook = func(w *workload.World) {
		c := sanitizer.Attach(w.K, w.F, sanitizer.Config{
			AllowLazyWindow: w.F.Cfg.LazyRemote,
		})
		mu.Lock()
		checkers = append(checkers, c)
		mu.Unlock()
	}
	tables := runner(o)
	return tables, sanitizer.Merge(checkers), nil
}
