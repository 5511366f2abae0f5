package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiling turns on the profilers whose flags name a file. CPU
// profiling starts at once; block and mutex event sampling is switched
// on at once (rate 1 — exact, the cost only matters when the flag is
// set); the heap, block and mutex profiles are written when the returned
// stop function runs.
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
	if c.blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if c.mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	writeLookup := func(name, path string) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
			return
		}
		defer f.Close()
		if name == "heap" {
			runtime.GC() // report live heap, not transient garbage
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.memProfile != "" {
			writeLookup("heap", c.memProfile)
		}
		if c.blockProfile != "" {
			writeLookup("block", c.blockProfile)
			runtime.SetBlockProfileRate(0)
		}
		if c.mutexProfile != "" {
			writeLookup("mutex", c.mutexProfile)
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}
