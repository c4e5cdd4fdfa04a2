package runlog

import (
	"flag"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestFailedStartStopsSamplerAndProfiler starts a session whose -profile
// listener cannot bind after the runtime sampler and the whole-run CPU
// capture have started: Start must fail and leave neither behind — the
// process's CPU profiler is free again and no sampler goroutine survives.
func TestFailedStartStopsSamplerAndProfiler(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	before := runtime.NumGoroutine()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "senkf-test")
	if err := fs.Parse([]string{
		"-archive", t.TempDir(), "-capture-profile", "-runtime-sample", "1ms",
		"-profile", held.Addr().String(), "-log-level", "error",
	}); err != nil {
		t.Fatal(err)
	}
	if s, err := f.Start(); err == nil {
		s.Finish(nil)
		t.Fatalf("Start succeeded on a held -profile address %s", held.Addr())
	}

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("CPU profiler still taken after a failed Start: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after a failed Start, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
