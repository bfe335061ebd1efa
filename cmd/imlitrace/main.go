// Command imlitrace inspects trace files and synthetic benchmarks:
// record counts, branch-kind histogram, taken/backward rates, the
// hottest branch sites, and an IMLI-counter profile (distribution of
// IMLIcount values at conditional branches), which shows how much
// inner-most-loop structure a workload exposes to the paper's
// mechanism.
//
// Usage:
//
//	imlitrace -bench=SPEC2K6-12 -branches=100000
//	imlitrace -trace=traces/MM-4.imlt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imlitrace:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imlitrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "synthetic benchmark name")
	traceFile := fs.String("trace", "", "trace file path")
	branches := fs.Int("branches", 100000, "branch records for synthetic benchmarks")
	hot := fs.Int("hot", 10, "number of hottest branch sites to list")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := cliflags.Positive("branches", *branches); err != nil {
		return err
	}

	if *bench != "" && *traceFile != "" {
		return fmt.Errorf("conflicting source flags: pass exactly one of -bench or -trace")
	}

	switch {
	case *bench != "":
		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		a := newAnalysis()
		b.Generate(*branches, a.add)
		a.report(stdout, b.Name, *hot)
		return nil
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		a := newAnalysis()
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			a.add(rec)
		}
		a.report(stdout, r.Name(), *hot)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -bench or -trace")
	}
}

type siteStat struct {
	pc       uint64
	kind     trace.Kind
	count    int
	taken    int
	backward bool
}

type analysis struct {
	stats  trace.Stats
	kinds  map[trace.Kind]int
	sites  map[uint64]*siteStat
	imli   *core.IMLI
	counts map[uint32]int // IMLIcount value histogram at conditionals
}

func newAnalysis() *analysis {
	return &analysis{
		kinds:  map[trace.Kind]int{},
		sites:  map[uint64]*siteStat{},
		imli:   core.NewIMLI(),
		counts: map[uint32]int{},
	}
}

func (a *analysis) add(r trace.Record) {
	a.stats.Add(r)
	a.kinds[r.Kind]++
	s := a.sites[r.PC]
	if s == nil {
		s = &siteStat{pc: r.PC, kind: r.Kind, backward: r.Backward()}
		a.sites[r.PC] = s
	}
	s.count++
	if r.Taken {
		s.taken++
	}
	if r.Conditional() {
		a.counts[a.imli.Count()]++
		a.imli.Observe(r.PC, r.Target, r.Taken)
	}
}

func (a *analysis) report(w io.Writer, name string, hot int) {
	fmt.Fprintf(w, "trace %s\n", name)
	fmt.Fprintf(w, "  records       %d\n", a.stats.Records)
	fmt.Fprintf(w, "  instructions  %d\n", a.stats.Instructions)
	fmt.Fprintf(w, "  conditionals  %d (%.1f%% taken, %.1f%% backward)\n",
		a.stats.Conditionals, a.stats.TakenRate()*100,
		float64(a.stats.Backward)/float64(a.stats.Conditionals)*100)
	fmt.Fprintf(w, "  static sites  %d\n", len(a.sites))

	fmt.Fprintf(w, "  kinds:")
	for k := trace.Kind(0); k < 5; k++ {
		if a.kinds[k] > 0 {
			fmt.Fprintf(w, " %s=%d", k, a.kinds[k])
		}
	}
	fmt.Fprintln(w)

	// IMLIcount profile: how deep do inner loops run?
	var maxCount uint32
	inLoop := 0
	for c, n := range a.counts {
		if c > maxCount {
			maxCount = c
		}
		if c > 0 {
			inLoop += n
		}
	}
	fmt.Fprintf(w, "  IMLI profile: %.1f%% of conditionals inside a counted inner loop, max IMLIcount %d\n",
		float64(inLoop)/float64(a.stats.Conditionals)*100, maxCount)
	buckets := []struct {
		label    string
		from, to uint32
	}{
		{"1-7", 1, 7}, {"8-15", 8, 15}, {"16-31", 16, 31}, {"32-63", 32, 63}, {"64+", 64, 1 << 30},
	}
	for _, b := range buckets {
		n := 0
		for c, cnt := range a.counts {
			if c >= b.from && c <= b.to {
				n += cnt
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "    IMLIcount %-6s %6.2f%%\n", b.label,
				float64(n)/float64(a.stats.Conditionals)*100)
		}
	}

	// Hottest sites.
	all := make([]*siteStat, 0, len(a.sites))
	for _, s := range a.sites {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].count > all[j].count })
	if hot > len(all) {
		hot = len(all)
	}
	fmt.Fprintf(w, "  hottest %d sites:\n", hot)
	for _, s := range all[:hot] {
		dir := "fwd"
		if s.backward {
			dir = "back"
		}
		fmt.Fprintf(w, "    %#10x %-5s %-4s %8d execs  %5.1f%% taken\n",
			s.pc, s.kind, dir, s.count, float64(s.taken)/float64(s.count)*100)
	}
}
