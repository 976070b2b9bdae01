package main

import (
	"sync"
	"testing"
	"time"
)

func TestClosedLoopNumbersOperationsOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	closedLoop(2, 30*time.Millisecond, func(_, i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	for i := 0; i < len(seen); i++ {
		if seen[i] != 1 {
			t.Fatalf("operation %d issued %d times", i, seen[i])
		}
	}
}
