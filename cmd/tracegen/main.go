// Command tracegen generates, saves, and inspects LIT-like checkpoints
// (memory snapshot + µop trace) for the Table 2 benchmarks.
//
// Usage:
//
//	tracegen gen  [-ops N] [-o file] <benchmark>
//	tracegen info <file>
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracegen gen [-ops N] [-o file] <benchmark> | tracegen info <file>")
	os.Exit(2)
}

// genArgs is what gen's command line asks for.
type genArgs struct {
	ops  int // µop budget; 0 = the benchmark default
	out  string
	name string
}

// positiveInt is a flag value that accepts only a positive integer.
type positiveInt int

func (p *positiveInt) String() string { return strconv.Itoa(int(*p)) }

func (p *positiveInt) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return errors.New("want a positive integer")
	}
	*p = positiveInt(n)
	return nil
}

// parseGen reads gen's arguments. Flags may come before or after the
// benchmark name; exactly one name is required.
func parseGen(args []string) (genArgs, error) {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var ops positiveInt
	fs.Var(&ops, "ops", "µop budget")
	out := fs.String("o", "", "output file (default <benchmark>.cdpt)")
	var names []string
	for {
		if err := fs.Parse(args); err != nil {
			return genArgs{}, err
		}
		if fs.NArg() == 0 {
			break
		}
		names = append(names, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(names) != 1 {
		return genArgs{}, fmt.Errorf("want one benchmark, got %d", len(names))
	}
	return genArgs{ops: int(ops), out: *out, name: names[0]}, nil
}

func gen(args []string) {
	a, err := parseGen(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen gen: %v\n", err)
		os.Exit(2)
	}
	spec, err := workloads.ByName(a.name)
	if err != nil {
		fatal(err)
	}
	ck := workloads.Checkpoint(spec, a.ops)
	out := a.out
	if out == "" {
		out = a.name + ".cdpt"
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	n, err := ck.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d bytes, %d µops, %d instructions, %d pages\n",
		out, n, ck.Trace.Len(), ck.Instrs, ck.Space.Img.PageCount())
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	ck, err := trace.ReadCheckpoint(f)
	if err != nil {
		fatal(err)
	}
	mix := trace.MixOf(ck.Trace)
	fmt.Printf("name          %s\n", ck.Name)
	fmt.Printf("µops          %d (%s)\n", ck.Trace.Len(), mix)
	fmt.Printf("instructions  %d (%.2f µops/instr)\n", ck.Instrs,
		float64(ck.Trace.Len())/float64(max(ck.Instrs, 1)))
	fmt.Printf("memory        %d pages backed (%d KiB), %d pages mapped\n",
		ck.Space.Img.PageCount(), ck.Space.Img.PageCount()*mem.PageSize/1024,
		ck.Space.MappedPages())
	fmt.Printf("coded trace   %d templates, %.2f bytes a µop in memory\n",
		ck.Trace.Templates(), float64(ck.Trace.Bytes())/float64(max(ck.Trace.Len(), 1)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
