package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs fn from the given number of goroutines until d has
// passed: each goroutine issues its next operation only when the previous
// one returned. Operations are numbered 0, 1, 2, ... in issue order across
// all goroutines; w is the goroutine's index. It returns the time from the
// start until the last operation returned.
func closedLoop(workers int, d time.Duration, fn func(w, i int)) time.Duration {
	t0 := time.Now()
	deadline := t0.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn(w, int(next.Add(1)-1))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}
