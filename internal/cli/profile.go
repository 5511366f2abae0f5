package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiling turns on the profilers whose flags name a file. CPU
// profiling starts at once; the heap profile is written when the
// returned stop function runs.
func (c *Command) startProfiling() (stop func(), err error) {
	var cpuFile *os.File
	if c.cpuProfile != "" {
		cpuFile, err = os.Create(c.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.memProfile != "" {
			writeHeap(c.memProfile)
		}
	}, nil
}

// writeHeap writes the live heap's pprof profile to path; a failure is
// reported, not fatal, since the run itself is over.
func writeHeap(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heap profile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // report live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "heap profile: %v\n", err)
	}
}
