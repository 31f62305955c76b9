package hostprof

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// checkProfile asserts path holds a pprof profile: non-empty and gzipped,
// which is how runtime/pprof writes both kinds.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s: %d bytes, not a gzipped profile", path, len(data))
	}
}

func TestStartStopWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	p := &Profiler{cpuPath: cpu, memPath: mem}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop() // a second Stop (a deferred one after an explicit one) does nothing
	checkProfile(t, cpu)
	checkProfile(t, mem)
}

func TestStartReportsUnwritableProfile(t *testing.T) {
	p := &Profiler{cpuPath: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")}
	err := p.Start()
	if err == nil || !strings.Contains(err.Error(), "cpuprofile") {
		t.Fatalf("Start with an unwritable path: %v", err)
	}
	p.Stop() // nothing was started: nothing to finish
}

func TestNoFlagsDoesNothing(t *testing.T) {
	var p Profiler
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
}

// TestToolsWriteProfiles is the CLI smoke test: each of the two tools
// that carry the flags is built and run on its cheapest input with both
// set, and must exit cleanly leaving two profiles behind.
func TestToolsWriteProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"../../cmd/nubasim", "../../cmd/nubasweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	tools := []struct {
		name string
		args []string
	}{
		{"nubasim", []string{"-bench", "LEU", "-scale", "0.125"}},
		{"nubasweep", []string{"-exp", "table2"}},
	}
	for _, tool := range tools {
		out := t.TempDir()
		cpu, mem := filepath.Join(out, "cpu.prof"), filepath.Join(out, "mem.prof")
		cmd := exec.Command(filepath.Join(bin, tool.name),
			append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tool.args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("%s: %v\n%s", tool.name, err, stderr.Bytes())
			continue
		}
		checkProfile(t, cpu)
		checkProfile(t, mem)
	}
}
