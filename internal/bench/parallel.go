package bench

import (
	"repro/internal/vtime/domain"
)

// forEach runs n independent jobs on up to GOMAXPROCS workers and returns
// the first error. Every experiment run owns its scheduler, NIC, and
// engine, so cells of a result table can be computed concurrently; this
// is what makes the full-scale `-run all` pass tractable on a multicore
// host.
//
// The fan-out draws workers from the process-wide budget in
// internal/vtime/domain, so nested fan-outs share one worker budget
// instead of oversubscribing cores: whichever layer grabs workers first
// parallelizes, and the other degrades to sequential execution.
//
// After any job fails, workers finish at their current job boundary
// instead of draining the remaining work.
func forEach(n int, job func(i int) error) error {
	return domain.ForEach(n, 0, job)
}

func forEachWorkers(n, workers int, job func(i int) error) error {
	return domain.ForEach(n, workers, job)
}
