// Package cli is the front end the snack* commands share: one set of
// flag groups, of which each command registers those it honours, and one
// process lifecycle around its run. Start checks the flags, applies the
// sweep settings, switches on the requested observability and starts
// the profiles; Finish writes the trace and metrics files, prints the
// attribution reports and stops the profiles; Fatalf and Usage stop the
// profiles too, since a run that fails is the one whose profile is
// wanted.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snacknoc/internal/attrib"
	"snacknoc/internal/experiments"
	"snacknoc/internal/stats"
)

// Group selects shared flags for a command to register.
type Group uint

const (
	Jobs           Group = 1 << iota // -j
	Shards                           // -shards
	WarmSweeps                       // -warm-sweeps
	Scale                            // -scale
	Priority                         // -priority
	Trace                            // -trace, -trace-last
	Metrics                          // -metrics, an output file
	Attrib                           // -attrib
	AttribInterval                   // -attrib-interval
	Profile                          // -cpuprofile, -memprofile, -blockprofile, -mutexprofile

	// Sweep and Observe are the whole groups of the commands that honour
	// every member.
	Sweep   = Jobs | Shards | WarmSweeps
	Observe = Trace | Metrics | Attrib | AttribInterval
)

// Command is one process's shared flags. Start applies them; a command
// reads Scale and Priority itself once Start has parsed the command
// line. Scale is 1 for a command that does not register -scale.
type Command struct {
	Scale    float64
	Priority bool

	jobs, shards   int
	warm           bool
	tracePath      string
	traceLast      int
	metricsPath    string
	attribOn       bool
	attribInterval int64
	cpuProfile     string
	memProfile     string
	blockProfile   string
	mutexProfile   string
}

var (
	prog         = "snack"   // the prefix of Fatalf's messages
	stopProfiles = func() {} // writes out the profiles Start began
	exit         = os.Exit   // a test stands in for the process exit
)

// New registers the flags of groups on the process's command line for
// the command called name.
func New(name string, groups Group) *Command {
	prog = name
	return register(flag.CommandLine, groups)
}

func register(fs *flag.FlagSet, g Group) *Command {
	c := &Command{Scale: 1}
	if g&Jobs != 0 {
		fs.IntVar(&c.jobs, "j", 0, "parallel sweep workers (0 = all CPUs, 1 = serial)")
	}
	if g&Shards != 0 {
		fs.IntVar(&c.shards, "shards", 0, "simulation-kernel shards per mesh (<=1 = serial; results are identical for any value)")
	}
	if g&WarmSweeps != 0 {
		fs.BoolVar(&c.warm, "warm-sweeps", false, "fork checkpointed baseline platforms and memoize zero-load legs across co-run cells (byte-identical output, faster fig12/fig13; ignored while -trace/-metrics are active)")
	}
	if g&Scale != 0 {
		fs.Float64Var(&c.Scale, "scale", 1.0, "benchmark instruction-budget scale (1.0 = reference)")
	}
	if g&Priority != 0 {
		fs.BoolVar(&c.Priority, "priority", true, "priority arbitration for SnackNoC traffic")
	}
	if g&Trace != 0 {
		fs.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON of every simulation to this file")
		fs.IntVar(&c.traceLast, "trace-last", 0, "with -trace, keep only the newest N events per simulation")
	}
	if g&Metrics != 0 {
		fs.StringVar(&c.metricsPath, "metrics", "", "write metrics snapshots of every simulation to this file (.csv for CSV)")
	}
	if g&Attrib != 0 {
		fs.BoolVar(&c.attribOn, "attrib", false, "attach cycle-attribution counters to every simulation and report each run's bottleneck")
	}
	if g&AttribInterval != 0 {
		fs.Int64Var(&c.attribInterval, "attrib-interval", 0, "with -attrib, sample windowed per-reason deltas every N cycles (exported as attrib.series.* and as trace counter tracks)")
	}
	if g&Profile != 0 {
		fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
		fs.StringVar(&c.blockProfile, "blockprofile", "", "write a pprof goroutine-blocking profile to this file on exit (shard-barrier waits)")
		fs.StringVar(&c.mutexProfile, "mutexprofile", "", "write a pprof contended-mutex profile to this file on exit")
	}
	return c
}

// check reports the first shared flag value the run cannot honour.
func (c *Command) check() error {
	switch {
	case !(c.Scale > 0):
		return fmt.Errorf("-scale must be positive, got %g", c.Scale)
	case c.traceLast < 0:
		return errors.New("-trace-last requires a non-negative count")
	case c.traceLast > 0 && c.tracePath == "":
		return errors.New("-trace-last requires -trace")
	case c.attribInterval < 0:
		return errors.New("-attrib-interval requires a non-negative cycle count")
	case c.attribInterval != 0 && !c.attribOn:
		return errors.New("-attrib-interval requires -attrib")
	}
	return nil
}

// Start parses the command line and begins the run. From here every
// exit goes through Finish, Fatalf or Usage, so the profiles are written
// on each.
func (c *Command) Start() {
	flag.Parse()
	c.start()
}

func (c *Command) start() {
	if err := c.check(); err != nil {
		Fatalf("%v", err)
	}
	experiments.SetWorkers(c.jobs)
	experiments.SetShards(c.shards)
	experiments.SetWarmSweeps(c.warm)
	if c.tracePath != "" {
		experiments.EnableTracing(c.traceLast)
	}
	if c.metricsPath != "" {
		experiments.EnableMetrics()
	}
	if c.attribOn {
		experiments.EnableAttribution(c.attribInterval)
	}
	stop, err := c.startProfiling()
	if err != nil {
		Fatalf("%v", err)
	}
	stopProfiles = stop
}

// Finish ends a run that succeeded: it writes the trace and metrics
// files, prints every attributed run's bottleneck report to stderr, and
// stops the profiles.
func (c *Command) Finish() {
	if c.tracePath != "" {
		if err := writeFile(c.tracePath, experiments.TraceCollector().WriteJSON); err != nil {
			Fatalf("%v", err)
		}
	}
	if c.metricsPath != "" {
		write := stats.WriteSnapshotsJSON
		if strings.HasSuffix(c.metricsPath, ".csv") {
			write = stats.WriteSnapshotsCSV
		}
		snaps := experiments.MetricsSnapshots()
		if err := writeFile(c.metricsPath, func(w io.Writer) error { return write(w, snaps) }); err != nil {
			Fatalf("%v", err)
		}
	}
	if c.attribOn {
		for _, s := range experiments.MetricsSnapshots() {
			if sum := attrib.Summarize(s.Values); len(sum.Layers) > 0 {
				sum.Render(os.Stderr, s.Label)
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	stopProfiles()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fatalf prints a message prefixed with the command's name to stderr,
// stops the profiles (os.Exit skips deferred calls) and exits with
// status 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	stopProfiles()
	exit(1)
}

// Usage prints the command's flags, stops the profiles and exits with
// status 2.
func Usage() {
	flag.Usage()
	stopProfiles()
	exit(2)
}
