// Package hostprof gives the command-line tools the two host-side
// profiles of the Go runtime — where the simulator's own CPU time and
// heap objects go — behind the same two flags `go test` uses, so sizing
// a performance change needs no throw-away main (docs/PERF.md).
package hostprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// memProfileRate is the heap sampling interval used when -memprofile is
// set: one sample per 4 KiB allocated instead of the runtime's 512 KiB,
// so a one-second run still attributes its allocations to call sites.
const memProfileRate = 4096

// Profiler is the state behind -cpuprofile and -memprofile.
type Profiler struct {
	cpuPath, memPath string
	cpu              *os.File
}

// Flags registers -cpuprofile and -memprofile on fs. Call it before
// fs.Parse, then Start once the flags are parsed.
func Flags(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of this process to `file` (read it with go tool pprof)")
	fs.StringVar(&p.memPath, "memprofile", "", "write an allocation profile of this process to `file` on exit")
	return p
}

// Start begins the requested profiles; with neither flag set it does
// nothing.
func (p *Profiler) Start() error {
	if p.memPath != "" {
		runtime.MemProfileRate = memProfileRate
	}
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop finishes the CPU profile and writes the allocation profile. A
// profile that cannot be written is reported on standard error and
// leaves the command's own result alone.
func (p *Profiler) Stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
		p.cpu = nil
	}
	if p.memPath == "" {
		return
	}
	if err := writeAllocs(p.memPath); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
	p.memPath = ""
}

// writeAllocs writes the "allocs" profile: every allocation since the
// process started, sampled, after a collection so the in-use columns
// are current too.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
