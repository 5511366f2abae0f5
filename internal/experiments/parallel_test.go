package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices: every index runs exactly once at any
// worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, j := range []int{1, 2, 7} {
		var hits [100]int32
		if err := (RunSpec{Workers: j}).forEach(len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("j=%d: index %d ran %d times", j, i, n)
			}
		}
	}
}

// TestForEachReturnsLowestIndexedError: the reported failure must not
// depend on goroutine scheduling.
func TestForEachReturnsLowestIndexedError(t *testing.T) {
	for _, j := range []int{1, 4} {
		err := RunSpec{Workers: j}.forEach(20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("j=%d: err = %v, want cell 7's error", j, err)
		}
	}
	ran := 0
	boom := errors.New("boom")
	err := RunSpec{Workers: 1}.forEach(10, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 4 {
		t.Fatalf("serial error short-circuit: err=%v ran=%d, want boom after 4 cells", err, ran)
	}
}

// TestParallelSweepDeterminism: a sweep's assembled result must be
// deep-equal regardless of worker count. Every cell self-seeds from the
// package Seed constant and owns its whole simulation stack, so the only
// way parallelism could leak into results is through shared state — this
// test is the tripwire for any such leak.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two reduced Fig 2 sweeps")
	}
	serial, err := RunSpec{Workers: 1}.RunFig2(0.05)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSpec{Workers: 4}.RunFig2(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial.Runs {
			if !reflect.DeepEqual(serial.Runs[i], parallel.Runs[i]) {
				t.Errorf("%s: serial and parallel runs differ", serial.Runs[i].Benchmark)
			}
		}
		t.Fatal("RunFig2 at -j 1 and -j 4 produced different results")
	}
}
