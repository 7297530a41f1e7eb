// Command tlbsim regenerates the tables and figures of "Don't shoot down
// TLB shootdowns!" (EuroSys '20) on the simulated machine.
//
// Usage:
//
//	tlbsim -list
//	tlbsim -exp fig6
//	tlbsim -exp all -quick
//	tlbsim -exp table4 -csv
//	tlbsim -exp faults -quick        # fault-injection sweep
//	tlbsim -exp fig6 -faults light   # any experiment under a fault schedule
//	tlbsim -exp fig10 -quick -cpuprofile fig10.pprof  # host CPU profile
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig5..fig11, table3, table4, ablation, or 'all')")
		quick    = flag.Bool("quick", false, "shrink iteration counts and sweeps for a fast run")
		seed     = flag.Uint64("seed", 1, "deterministic simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list available experiments")
		parallel = flag.Int("parallel", 0, "experiment-cell worker count (0 = GOMAXPROCS); output is identical at any setting")
		faults   = flag.String("faults", "none", "fault schedule for every simulated machine: a preset (none, light, heavy, drop, broken) and/or key=p[:max] overrides")
		tlbmode  = flag.String("tlbmode", "", "shootdown dispatch tier override for every cell: sync or async (default: as each experiment configures)")
		topo     = flag.String("topo", "", "machine topology for every cell: 'default', a preset CPU count (56, 256, 512, 1024) or SxCxT[xN] (default: the paper's 56-CPU testbed)")
		cpuprof  = flag.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) of the run to this file; reports are unchanged")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	env, err := workload.ParseEnv(*faults, *tlbmode, *topo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbsim: %v\n", err)
		os.Exit(2)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlbsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tlbsim: -cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %s\n", n)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	names := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		names = experiments.Names()
	}
	reg := experiments.Registry()
	opts := experiments.Options{Quick: *quick, Seed: *seed, Env: env}
	for _, name := range names {
		runner, ok := reg[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "tlbsim: unknown experiment %q; try -list\n", name)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		for _, tab := range runner(opts) {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				tab.Write(os.Stdout)
			}
			fmt.Println()
		}
	}
}
