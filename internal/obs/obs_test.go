package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/telemetry"
)

func TestCollectorSamplePublishes(t *testing.T) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Second)
	runtime.GC() // guarantee at least one cycle and some pause samples
	c.Sample()

	snap := reg.Snapshot()
	for _, gauge := range []string{
		"runtime.heap.live_bytes",
		"runtime.heap.goal_bytes",
		"runtime.mem.rss_bytes",
		"runtime.sched.goroutines",
	} {
		g, ok := snap.Gauges[gauge]
		if !ok {
			t.Fatalf("gauge %s not published; have %v", gauge, snap.Gauges)
		}
		if g.Value <= 0 {
			t.Errorf("gauge %s = %d, want > 0", gauge, g.Value)
		}
	}
	if got := snap.Counters["runtime.obs.samples"]; got != 1 {
		t.Errorf("runtime.obs.samples = %d, want 1", got)
	}
	if got := snap.Counters["runtime.gc.cycles"]; got < 1 {
		t.Errorf("runtime.gc.cycles = %d, want ≥ 1 after a forced GC", got)
	}
	if got := snap.Counters["runtime.heap.alloc_bytes"]; got <= 0 {
		t.Errorf("runtime.heap.alloc_bytes = %d, want > 0", got)
	}
	if h, ok := snap.Histograms["runtime.gc.pause"]; !ok || h.Count < 1 {
		t.Errorf("runtime.gc.pause count = %+v, want ≥ 1 observation", h)
	}
	if c.RSS() <= 0 {
		t.Errorf("RSS() = %d, want > 0", c.RSS())
	}
	if c.PeakRSS() < c.RSS() {
		t.Errorf("PeakRSS() = %d < RSS() %d", c.PeakRSS(), c.RSS())
	}
}

func TestCollectorStartStop(t *testing.T) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Millisecond)
	c.Start()
	c.Start() // idempotent
	deadline := clock.Real{}.Now().Add(5 * time.Second)
	for reg.Counter("runtime.obs.samples").Value() < 2 {
		if (clock.Real{}).Now().After(deadline) {
			t.Fatal("collector loop produced no samples")
		}
		runtime.Gosched()
	}
	c.Stop()
	after := reg.Counter("runtime.obs.samples").Value()
	if after < 3 { // ≥2 from the loop plus the final Stop sample
		t.Fatalf("samples after Stop = %d, want ≥ 3", after)
	}
	c.Stop() // idempotent
}

func TestStageProbeDeltas(t *testing.T) {
	p := BeginStage(nil)
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	res := p.End("initial")
	_ = sink
	if res.Stage != "initial" {
		t.Errorf("Stage = %q", res.Stage)
	}
	if res.AllocBytes < 64*(64<<10) {
		t.Errorf("AllocBytes = %d, want ≥ %d", res.AllocBytes, 64*(64<<10))
	}
	if res.AllocObjects == 0 {
		t.Error("AllocObjects = 0, want > 0")
	}
	if res.GCCycles < 1 {
		t.Errorf("GCCycles = %d, want ≥ 1 after forced GC", res.GCCycles)
	}
	if res.Wall < 0 {
		t.Errorf("Wall = %v, want ≥ 0", res.Wall)
	}
	if res.PeakRSS <= 0 {
		t.Errorf("PeakRSS = %d, want > 0", res.PeakRSS)
	}
}

// Checkpoint segments written before the virtual-duration column was
// dropped still carry "virtual_ns"; their rows must decode unchanged.
func TestStageResourcesDecodesOlderRows(t *testing.T) {
	old := `{"stage":"round-003","wall_ns":1500000000,"virtual_ns":0,"alloc_bytes":4096,"peak_rss_bytes":8192}`
	var sr StageResources
	if err := json.Unmarshal([]byte(old), &sr); err != nil {
		t.Fatal(err)
	}
	want := StageResources{Stage: "round-003", Wall: 1500 * time.Millisecond, AllocBytes: 4096, PeakRSS: 8192}
	if sr != want {
		t.Errorf("decoded %+v, want %+v", sr, want)
	}
}

func TestAllocSamplerDelta(t *testing.T) {
	var s AllocSampler
	before := s.Sample()
	buf := make([]byte, 1<<20)
	_ = buf
	after := s.Sample()
	d := after.Sub(before)
	if d.Bytes < 1<<20 {
		t.Errorf("alloc delta = %d bytes, want ≥ 1MiB", d.Bytes)
	}
	if d.Objects == 0 {
		t.Error("alloc delta objects = 0")
	}
}

func TestWatchdogSoftBreach(t *testing.T) {
	reg := telemetry.New()
	dir := t.TempDir()
	w := NewWatchdog(Budget{SoftRSS: 1, ProfileDir: dir}, reg, nil)

	for range maxProfiles + 1 {
		w.poll()
	}

	if got := reg.Counter("budget.soft_breaches").Value(); got != maxProfiles+1 {
		t.Errorf("budget.soft_breaches = %d, want %d", got, maxProfiles+1)
	}
	if got := reg.Counter("budget.profiles_captured").Value(); got != maxProfiles {
		t.Errorf("budget.profiles_captured = %d, want %d (capped)", got, maxProfiles)
	}
	for i := 1; i <= maxProfiles; i++ {
		name := fmt.Sprintf("heap-%03d.pprof", i)
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("heap-%03d.pprof", maxProfiles+1))); !os.IsNotExist(err) {
		t.Error("profile capture exceeded maxProfiles")
	}
}

func TestWatchdogHardBreach(t *testing.T) {
	reg := telemetry.New()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w := NewWatchdog(Budget{SoftRSS: 1, HardRSS: 2}, reg, cancel)

	w.poll()
	w.poll() // the hard breach latches

	cause := context.Cause(ctx)
	if cause == nil {
		t.Fatal("hard breach did not cancel the run context")
	}
	if !errors.Is(cause, ErrBudgetExceeded) {
		t.Errorf("cancel cause %v does not wrap ErrBudgetExceeded", cause)
	}
	var be *BudgetError
	if !errors.As(cause, &be) || be.Limit != 2 || be.RSS <= 2 {
		t.Errorf("cancel cause = %#v, want BudgetError{RSS>2, Limit:2}", cause)
	}
	if got := reg.Counter("budget.hard_breaches").Value(); got != 1 {
		t.Errorf("budget.hard_breaches = %d, want 1 (latched)", got)
	}
	if got := reg.Counter("budget.soft_breaches").Value(); got != 0 {
		t.Errorf("budget.soft_breaches = %d above the hard limit, want 0", got)
	}
}

func TestWatchdogStartStopLoop(t *testing.T) {
	reg := telemetry.New()
	w := NewWatchdog(Budget{SoftRSS: 1}, reg, nil)
	w.Start()
	w.Stop()
	w.Stop()
	// Start polls once before its first sleep, so even a watchdog stopped
	// at once has checked its budget.
	if got := reg.Counter("budget.soft_breaches").Value(); got == 0 {
		t.Error("watchdog loop never breached a 1-byte soft budget")
	}
	// Disabled budgets must not spin a goroutine.
	idle := NewWatchdog(Budget{}, reg, nil)
	idle.Start()
	if idle.stop != nil {
		t.Error("disabled watchdog started a loop")
	}
}

func TestWatchdogRestoresMemoryLimit(t *testing.T) {
	const soft = 1 << 40
	before := debug.SetMemoryLimit(-1)

	w := NewWatchdog(Budget{SoftRSS: soft}, telemetry.New(), nil)
	w.Start()
	if got := debug.SetMemoryLimit(-1); got != soft {
		t.Errorf("memory limit while running = %d, want SoftRSS %d", got, int64(soft))
	}
	w.Stop()
	if got := debug.SetMemoryLimit(-1); got != before {
		t.Errorf("memory limit after Stop = %d, want the earlier %d", got, before)
	}

	// Neither a disabled nor a hard-only budget touches the limit.
	for _, b := range []Budget{{}, {HardRSS: 1 << 50}} {
		w := NewWatchdog(b, telemetry.New(), nil)
		w.Start()
		if got := debug.SetMemoryLimit(-1); got != before {
			t.Errorf("budget %+v: memory limit = %d, want it untouched at %d", b, got, before)
		}
		w.Stop()
	}
}

func TestBudgetEnabled(t *testing.T) {
	if (Budget{}).Enabled() {
		t.Error("zero budget reports enabled")
	}
	if !(Budget{SoftRSS: 1}).Enabled() || !(Budget{HardRSS: 1}).Enabled() {
		t.Error("limited budget reports disabled")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1024", 1024, true},
		{"64MiB", 64 << 20, true},
		{"512mib", 512 << 20, true},
		{"2GiB", 2 << 30, true},
		{"1.5g", 3 << 29, true},
		{"500MB", 500_000_000, true},
		{"128k", 128 << 10, true},
		{"10b", 10, true},
		{" 8 MiB ", 8 << 20, true},
		{"", 0, false},
		{"-5", 0, false},
		{"MiB", 0, false},
		{"12q", 0, false},
		{"inf", 0, false},
		{"nan", 0, false},
		{"1e30GiB", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseBytes(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestReadRSSPositive(t *testing.T) {
	if got := readRSS(); got <= 0 {
		t.Fatalf("readRSS() = %d, want > 0", got)
	}
}
